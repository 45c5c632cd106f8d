package msa

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// hugeClaimFile is a 36-byte binary alignment whose header declares three
// empty taxon names and one unnamed partition of 2^30 patterns, then ends.
func hugeClaimFile() []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	for _, v := range []uint32{binaryVersion, 3, 1, 0, 0, 0, 0, 1 << 30} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestReadBinaryAllocatesWhatArrives: counts in a header size nothing
// before the bytes they promise arrive, so a 36-byte file that claims
// 2^30 patterns fails with an error inside an allocation budget of 1 MB
// instead of ending the process out of memory.
func TestReadBinaryAllocatesWhatArrives(t *testing.T) {
	file := hugeClaimFile()
	if len(file) != 36 {
		t.Fatalf("fixture is %d bytes, want 36", len(file))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a file that ends after its header was accepted")
	}
	const budget = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("reading the 36-byte header allocated %d bytes, budget %d", got, budget)
	}
}

// FuzzReadBinary: any bytes cost at most an error, and a file that reads
// writes back to a file that reads to the same dataset, byte for byte.
func FuzzReadBinary(f *testing.F) {
	for _, shape := range [][3]int{{3, 1, 1}, {5, 40, 1}, {9, 120, 3}} {
		a := randomAlignment(shape[0], shape[1], int64(shape[1]))
		parts, _ := UniformPartitions(shape[1], shape[2])
		d, err := Compress(a, parts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hugeClaimFile())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, file []byte) {
		d, err := ReadBinary(bytes.NewReader(file))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteBinary(&once, d); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a dataset read from %d bytes writes a file that does not read: %v", len(file), err)
		}
		if err := WriteBinary(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("writing the dataset read back from a written file changes its bytes")
		}
	})
}
