package mpinet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"testing"

	"repro/internal/mpi"
)

// FuzzDecodeMessage feeds decodeMessage arbitrary data-frame payloads:
// it must return an error, never panic, and whatever it accepts must
// encode back to the same bytes (the encoding has one form per
// message).
func FuzzDecodeMessage(f *testing.F) {
	// TestMessageEncodeRoundTrip's messages.
	for _, m := range []mpi.Message{
		{Seq: 0},
		{Seq: 1, F64: []float64{}},
		{Seq: 2, Raw: []byte{}},
		{Seq: 3, F64: []float64{1.5, -0.0, math.Inf(1), math.Inf(-1), math.Pi, 1e-308}},
		{Seq: 4, Raw: []byte{0, 1, 2, 255}},
		{Seq: 5, F64: []float64{math.NaN()}, Raw: []byte("both payloads")},
		{Seq: math.MaxUint64, F64: make([]float64, 1000)},
	} {
		f.Add(appendMessage(nil, m))
	}
	// TestMessageDecodeRejectsCorruption's corruptions.
	good := appendMessage(nil, mpi.Message{Seq: 7, F64: []float64{1, 2, 3}, Raw: []byte("x")})
	flags := append([]byte(nil), good...)
	flags[8] = 0xFF
	for _, b := range [][]byte{good[:len(good)-1], good[:5], append(append([]byte(nil), good...), 0), flags} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMessage(b)
		if err != nil {
			return
		}
		if enc := appendMessage(nil, m); !bytes.Equal(enc, b) {
			t.Fatalf("decoded %d bytes re-encode to %d different bytes", len(b), len(enc))
		}
	})
}

// FuzzFrameStream feeds the frame parser (frameBuf) an arbitrary byte
// stream two ways: frame by frame through readFrame, as a handshake
// reads, and in chunks the fuzzer sizes through a buffer that starts at a
// size the fuzzer picks, as a receive reads. It must never panic; the
// frames, encoded again, must be the stream's start (all of it when the
// stream ends cleanly); the stream must end in a refused header exactly
// when the header after the frames declares more than maxFramePayload;
// both ways must yield the same frames and end; and the buffer must grow
// only for a frame that does not fit, to no more than twice the bytes it
// holds and one header plus maxFramePayload. Seeds: frame_test.go's
// messages as data frames among heartbeats and a bye (the long one cut to
// 40 values: the fuzzer minimizes every new input, exec by exec), its
// corruptions, and headers at the payload bound and one past it.
func FuzzFrameStream(f *testing.F) {
	var stream []byte
	for _, m := range []mpi.Message{
		{Seq: 0},
		{Seq: 1, F64: []float64{}},
		{Seq: 2, Raw: []byte{}},
		{Seq: 3, F64: []float64{1.5, -0.0, math.Inf(1), math.Inf(-1), math.Pi, 1e-308}},
		{Seq: 4, Raw: []byte{0, 1, 2, 255}},
		{Seq: 5, F64: []float64{math.NaN()}, Raw: []byte("both payloads")},
		{Seq: math.MaxUint64, F64: make([]float64, 40)},
	} {
		stream = appendDataFrame(stream, m)
		stream = append(stream, heartbeatFrame[:]...)
	}
	stream = append(stream, 0, 0, 0, 0, frameBye)
	header := func(n uint32, typ byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), typ)
	}
	for _, b := range [][]byte{
		stream,
		stream[:len(stream)/2],
		stream[:3],
		header(0xFFFFFFFF, frameData),
		header(maxFramePayload, frameData),
		header(maxFramePayload+1, frameData),
		append(header(1, frameData), 7),
		append(header(2, frameData), 7),
	} {
		f.Add(b, []byte{0}, uint8(0))
		f.Add(b, []byte{3, 250, 17}, uint8(7))
	}
	f.Fuzz(func(t *testing.T, stream, chunks []byte, size uint8) {
		var want []byte
		var wantErr error
		for r := bytes.NewReader(stream); wantErr == nil; {
			typ, payload, err := readFrame(r)
			if err == nil && payload != nil && len(payload) == 0 {
				t.Fatal("readFrame returned an empty payload that is not nil")
			}
			want = appendFrame(want, typ, payload, err)
			wantErr = err
		}
		if !bytes.HasPrefix(stream, want) {
			t.Fatalf("the %d bytes of frames read are not the stream's start", len(want))
		}
		rest := stream[len(want):]
		if wantErr == io.EOF && len(rest) != 0 {
			t.Fatalf("a clean end with %d bytes unread", len(rest))
		}
		var declared uint32
		if len(rest) >= frameHeader {
			declared = binary.LittleEndian.Uint32(rest)
		}
		if refused := declared > maxFramePayload; refused != (wantErr.Error() == errFrameTooLarge(declared).Error()) {
			t.Fatalf("the stream ends in %q before %d bytes", wantErr, len(rest))
		}

		b := frameBuf{buf: make([]byte, 1+int(size)%64)}
		var got []byte
		var gotErr error
		for i := 0; gotErr == nil; i++ {
			typ, payload, ok, err := b.next()
			if ok || err != nil {
				got = appendFrame(got, typ, payload, err)
				gotErr = err
				continue
			}
			if len(stream) == 0 {
				gotErr = b.streamErr(io.EOF)
				break
			}
			n := len(b.buf)
			space := b.space()
			if len(b.buf) != n && (len(b.buf) > 2*(b.w-b.r) || len(b.buf) > frameHeader+maxFramePayload) {
				t.Fatalf("the buffer grew from %d to %d bytes holding %d", n, len(b.buf), b.w-b.r)
			}
			chunk := 1
			if len(chunks) > 0 {
				chunk += int(chunks[i%len(chunks)])
			}
			n = copy(space, stream[:min(chunk, len(stream))])
			b.filled(n)
			stream = stream[n:]
		}
		if !bytes.Equal(got, want) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("read in chunks: %d bytes of frames ending in %q; frame by frame: %d ending in %q", len(got), gotErr, len(want), wantErr)
		}
	})
}

// appendFrame appends one parsed frame to dst, encoded again, unless
// its parse failed.
func appendFrame(dst []byte, typ byte, payload []byte, err error) []byte {
	if err != nil {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(append(dst, typ), payload...)
}

// FuzzWelcome feeds a joiner's decode-and-check step (decodeWelcome)
// arbitrary answers to its registration, at launch and in recovery, as
// any rank of a world of up to eight: it must return an error, never
// panic, and a welcome it accepts must seat the joiner in a world every
// slice of which fits — what fault.exchangeRestore indexes. Seeds:
// TestRendezvousOutcomes's welcomes, a refusal, a bare bye, a hello and
// cut JSON.
func FuzzWelcome(f *testing.F) {
	for _, tc := range welcomeCases {
		payload, err := json.Marshal(&tc.w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frameWelcome, payload, uint8(0), uint8(1), uint8(2))
		f.Add(frameWelcome, payload, uint8(1), uint8(1), uint8(2))
		f.Add(frameWelcome, payload[:len(payload)/2], uint8(1), uint8(1), uint8(2))
	}
	refusal, _ := json.Marshal(&refusal{Reason: "rank 1's inputs differ"})
	f.Add(frameBye, refusal, uint8(1), uint8(1), uint8(2))
	f.Add(frameBye, []byte(nil), uint8(0), uint8(1), uint8(2))
	hello, _ := json.Marshal(&hello{Nonce: 5, Rank: 1, Size: 2})
	f.Add(frameHello, hello, uint8(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, typ byte, payload []byte, epoch, rank, size uint8) {
		cfg := Config{Size: 1 + int(size)%8}
		cfg.Rank = int(rank) % cfg.Size
		rv := newRendezvous(cfg, "127.0.0.1:1", int(epoch)%2, 0)
		w, err := rv.decodeWelcome(typ, payload)
		if err != nil {
			return
		}
		if w.Rank < 1 || w.Rank >= w.Size || w.Size > cfg.Size {
			t.Fatalf("accepted rank %d of %d for a joiner of a world of %d", w.Rank, w.Size, cfg.Size)
		}
		if len(w.Book) != w.Size || len(w.Metas) != w.Size || len(w.OldRanks) != w.Size {
			t.Fatalf("accepted %d / %d / %d book, meta and old-rank entries for a world of %d",
				len(w.Book), len(w.Metas), len(w.OldRanks), w.Size)
		}
		if w.OldRanks[w.Rank] != cfg.Rank {
			t.Fatalf("accepted a seat registered as rank %d for rank %d", w.OldRanks[w.Rank], cfg.Rank)
		}
	})
}

// FuzzHello feeds a coordinator's admission of one registration (admit)
// arbitrary frames, at launch and in recovery, as any rank of a world of
// up to eight of which any ranks have registered: it must never panic,
// and a hello it admits must take a seat that is free — a rank in
// [0, Size), not the coordinator's, not yet registered — and carry the
// run's nonce and input digest and, at launch, the world's size. Seeds:
// TestRendezvousOutcomes's registrations (another size, a duplicate rank,
// a stale nonce, other inputs, a replacement from the launch world), a
// welcome, a bare bye and cut JSON.
func FuzzHello(f *testing.F) {
	type seed struct {
		h                        hello
		epoch, rank, size, taken uint8
		digest                   uint64
	}
	// size is the world's size less one, as the target reads it.
	for _, s := range []seed{
		{h: hello{Nonce: 5, Rank: 1, Size: 2, Addr: "127.0.0.1:1"}, size: 1},
		{h: hello{Nonce: 5, Rank: 1, Size: 3}, size: 1},
		{h: hello{Nonce: 5, Rank: 1, Size: 3}, size: 2, taken: 1 << 1},
		{h: hello{Nonce: 6, Rank: 1, Size: 2}, size: 1},
		{h: hello{Nonce: 6, Rank: 1, Size: 2, Meta: 11, Digest: 2}, epoch: 1, size: 1, digest: 1},
		{h: hello{Nonce: 6, Rank: 1, Size: 3, Addr: "127.0.0.1:1", Meta: 11}, epoch: 1, size: 2},
		{h: hello{Nonce: 6, Rank: 1, Size: 3, Addr: "127.0.0.1:1", Meta: 11}, epoch: 1, size: 2, taken: 1 << 1},
		{h: hello{Nonce: 6, Rank: 2, Size: 4, Meta: 12}, epoch: 1, size: 2, taken: 1 << 1},
		{h: hello{Nonce: 6, Rank: 0, Size: 2, Meta: 10}, epoch: 1, rank: 1, size: 1},
	} {
		payload, err := json.Marshal(&s.h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frameHello, payload, s.epoch, s.rank, s.size, s.taken, s.digest)
		f.Add(frameHello, payload[:len(payload)/2], s.epoch, s.rank, s.size, s.taken, s.digest)
	}
	welcome, _ := json.Marshal(&welcome{Size: 2, Rank: 1, Book: []string{"a", "b"}})
	f.Add(frameWelcome, welcome, uint8(0), uint8(0), uint8(1), uint8(0), uint64(0))
	f.Add(frameBye, []byte(nil), uint8(1), uint8(0), uint8(1), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, typ byte, payload []byte, epoch, rank, size, taken uint8, digest uint64) {
		cfg := Config{Size: 1 + int(size)%8, Nonce: 5, Digest: digest}
		cfg.Rank = int(rank) % cfg.Size
		rv := newRendezvous(cfg, "127.0.0.1:1", int(epoch)%2, 0)
		conns := make([]net.Conn, cfg.Size)
		for r := range conns {
			if taken>>r&1 != 0 {
				conns[r] = registered{}
			}
		}
		h, verdict, _ := rv.admit(typ, payload, conns)
		if verdict != admitted {
			return
		}
		if h.Rank < 0 || h.Rank >= cfg.Size || h.Rank == cfg.Rank || conns[h.Rank] != nil {
			t.Fatalf("admitted rank %d to a world of %d coordinated by rank %d, registered %08b", h.Rank, cfg.Size, cfg.Rank, taken)
		}
		if h.Nonce != rv.nonce || h.Digest != cfg.Digest {
			t.Fatalf("admitted nonce %d, digest %x; the run's are %d, %x", h.Nonce, h.Digest, rv.nonce, cfg.Digest)
		}
		if rv.epoch == 0 && h.Size != cfg.Size {
			t.Fatalf("admitted a rank of a world of %d at the launch of one of %d", h.Size, cfg.Size)
		}
	})
}

// registered stands in for a registered joiner's connection.
type registered struct{ net.Conn }
