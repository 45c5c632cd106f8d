package mpinet

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mpi"
)

func TestMessageEncodeRoundTrip(t *testing.T) {
	cases := []mpi.Message{
		{Seq: 0},
		{Seq: 1, F64: []float64{}},
		{Seq: 2, Raw: []byte{}},
		{Seq: 3, F64: []float64{1.5, -0.0, math.Inf(1), math.Inf(-1), math.Pi, 1e-308}},
		{Seq: 4, Raw: []byte{0, 1, 2, 255}},
		{Seq: 5, F64: []float64{math.NaN()}, Raw: []byte("both payloads")},
		{Seq: math.MaxUint64, F64: make([]float64, 1000)},
	}
	for i, in := range cases {
		enc := appendMessage(nil, in)
		out, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if out.Seq != in.Seq {
			t.Errorf("case %d: seq %d != %d", i, out.Seq, in.Seq)
		}
		if (out.F64 == nil) != (in.F64 == nil) || (out.Raw == nil) != (in.Raw == nil) {
			t.Errorf("case %d: nil-ness not preserved", i)
		}
		if len(out.F64) != len(in.F64) || len(out.Raw) != len(in.Raw) {
			t.Fatalf("case %d: lengths differ", i)
		}
		for j := range in.F64 {
			if math.Float64bits(out.F64[j]) != math.Float64bits(in.F64[j]) {
				t.Errorf("case %d: f64[%d] bits %x != %x", i, j, math.Float64bits(out.F64[j]), math.Float64bits(in.F64[j]))
			}
		}
		if !bytes.Equal(out.Raw, in.Raw) {
			t.Errorf("case %d: raw payload differs", i)
		}
	}
}

func TestMessageDecodeRejectsCorruption(t *testing.T) {
	good := appendMessage(nil, mpi.Message{Seq: 7, F64: []float64{1, 2, 3}, Raw: []byte("x")})
	if _, err := decodeMessage(good[:len(good)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := decodeMessage(good[:5]); err == nil {
		t.Error("header-only frame accepted")
	}
	if _, err := decodeMessage(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte(nil), good...)
	bad[8] = 0xFF // unknown flags
	if _, err := decodeMessage(bad); err == nil {
		t.Error("unknown flags accepted")
	}
}

func TestFrameReadRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, frameData})
	if _, _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

func TestFrameWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := appendMessage(nil, mpi.Message{Seq: 9, F64: []float64{2.5}})
	if err := writeFrame(&buf, frameData, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil || typ != frameData || !bytes.Equal(got, payload) {
		t.Fatalf("data frame round trip: typ=%d err=%v", typ, err)
	}
	typ, got, err = readFrame(&buf)
	if err != nil || typ != frameHeartbeat || got != nil {
		t.Fatalf("heartbeat frame round trip: typ=%d payload=%v err=%v", typ, got, err)
	}
}

// BenchmarkFrameEncodeDecode measures the data-plane serialization cost
// for an Allreduce-sized float64 payload. Run it with `go test -run '^$'
// -bench BenchmarkFrameEncodeDecode ./internal/mpinet`.
func BenchmarkFrameEncodeDecode(b *testing.B) {
	m := mpi.Message{Seq: 42, F64: make([]float64, 256)}
	for i := range m.F64 {
		m.F64[i] = float64(i) * 1.000000000001
	}
	enc := appendMessage(nil, m)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = appendMessage(enc[:0], m)
		if _, err := decodeMessage(enc); err != nil {
			b.Fatal(err)
		}
	}
}
