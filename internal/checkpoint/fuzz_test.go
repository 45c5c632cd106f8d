package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frame wraps body in a v2 header with its true length and checksum, so
// the fuzzer reaches the body parser instead of the checksum check.
func frame(body []byte) []byte {
	out := append([]byte(stateMagic), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[4:], stateVersion)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// FuzzDecodeCheckpoint: a checkpoint body (framed with its true
// checksum) either fails to decode with an error or decodes to a state
// that re-encodes to the same bytes, and whose BuildTree returns a tree
// or an error — never a panic. The raw input is also decoded as a whole
// file, header included.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, shape := range [][2]int{{3, 1}, {5, 1}, {12, 3}} {
		s, _ := sampleState(f, shape[0], shape[1])
		enc, err := Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[16:])
	}
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, body []byte) {
		Decode(body) // a whole file: at most an error
		framed := frame(body)
		s, err := Decode(framed)
		if err != nil {
			return
		}
		again, err := Encode(s)
		if err != nil {
			t.Fatalf("a decoded state does not encode: %v", err)
		}
		if !bytes.Equal(again, framed) {
			t.Fatalf("a decoded state re-encodes to other bytes (%d, decoded from %d)", len(again), len(framed))
		}
		if tr, err := s.BuildTree(); err == nil {
			if err := tr.Check(); err != nil {
				t.Fatalf("BuildTree returned a tree that fails its check: %v", err)
			}
		}
	})
}
