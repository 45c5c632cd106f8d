package msa

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The binary alignment format realizes the paper's §V plan of "a binary
// data format for storing input alignments" to accelerate (re-)distribution
// of data: states are packed two per byte (4 bits each), compression to
// patterns is done once at write time, and the whole payload is protected
// by a CRC so a truncated file is detected before inference starts.
//
// Layout (all integers little-endian):
//
//	magic   [4]byte "EXBA"
//	version uint32  (currently 1)
//	nTaxa   uint32
//	nParts  uint32
//	taxa    nTaxa × (uint32 len + bytes)
//	parts   nParts × {
//	    name      uint32 len + bytes
//	    nPatterns uint32
//	    freqs     4 × float64
//	    weights   nPatterns × uint32
//	    tips      nTaxa rows × ceil(nPatterns/2) packed bytes
//	}
//	crc32   uint32 (IEEE, over everything after the 8-byte preamble)

const (
	binaryMagic   = "EXBA"
	binaryVersion = 1
	// growStep is the most entries ReadBinary reserves for a count it has
	// not read the data of yet.
	growStep = 1 << 12
)

// WriteBinary serializes the dataset in the binary alignment format.
func WriteBinary(w io.Writer, d *Dataset) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(w)
	mw := io.MultiWriter(bw, crc)

	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(binaryVersion)); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(len(d.Names))); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(len(d.Parts))); err != nil {
		return err
	}
	writeString := func(s string) error {
		if err := binary.Write(mw, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		_, err := mw.Write([]byte(s))
		return err
	}
	for _, name := range d.Names {
		if err := writeString(name); err != nil {
			return err
		}
	}
	for _, p := range d.Parts {
		if len(p.Tips) != len(d.Names) {
			return fmt.Errorf("msa: partition %q has %d tip rows, dataset has %d taxa", p.Name, len(p.Tips), len(d.Names))
		}
		if err := writeString(p.Name); err != nil {
			return err
		}
		np := p.NPatterns()
		if err := binary.Write(mw, binary.LittleEndian, uint32(np)); err != nil {
			return err
		}
		for _, f := range p.Freqs {
			if err := binary.Write(mw, binary.LittleEndian, f); err != nil {
				return err
			}
		}
		for _, wgt := range p.Weights {
			if err := binary.Write(mw, binary.LittleEndian, uint32(wgt)); err != nil {
				return err
			}
		}
		packed := make([]byte, (np+1)/2)
		for _, row := range p.Tips {
			for i := range packed {
				packed[i] = 0
			}
			for j, s := range row {
				if j%2 == 0 {
					packed[j/2] = byte(s)
				} else {
					packed[j/2] |= byte(s) << 4
				}
			}
			if _, err := mw.Write(packed); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a dataset written by WriteBinary, verifying the
// magic, version, and checksum.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("msa: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("msa: bad magic %q, not a binary alignment", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("msa: unsupported binary version %d", version)
	}

	crc := crc32.NewIEEE()
	cr := io.TeeReader(br, crc)

	var nTaxa, nParts uint32
	if err := binary.Read(cr, binary.LittleEndian, &nTaxa); err != nil {
		return nil, err
	}
	if err := binary.Read(cr, binary.LittleEndian, &nParts); err != nil {
		return nil, err
	}
	const limit = 1 << 24
	if nTaxa < 3 || nTaxa > limit || nParts < 1 || nParts > limit {
		return nil, fmt.Errorf("msa: implausible header: %d taxa, %d partitions", nTaxa, nParts)
	}
	readString := func() (string, error) {
		var n uint32
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		if n > 1<<16 {
			return "", fmt.Errorf("msa: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	// The counts are the file's word until the bytes they promise arrive,
	// so the slices they size grow with what was read: a header of a few
	// bytes that claims 2^24 taxa or 2^30 patterns costs an error, not
	// the memory it claims.
	d := &Dataset{Names: make([]string, 0, min(nTaxa, growStep))}
	for i := 0; i < int(nTaxa); i++ {
		name, err := readString()
		if err != nil {
			return nil, fmt.Errorf("msa: taxon name %d: %w", i, err)
		}
		d.Names = append(d.Names, name)
	}
	for pi := 0; pi < int(nParts); pi++ {
		name, err := readString()
		if err != nil {
			return nil, fmt.Errorf("msa: partition %d name: %w", pi, err)
		}
		var np uint32
		if err := binary.Read(cr, binary.LittleEndian, &np); err != nil {
			return nil, err
		}
		if np < 1 || np > 1<<30 {
			return nil, fmt.Errorf("msa: partition %q: implausible pattern count %d", name, np)
		}
		// nTaxa names have arrived, at least 4 bytes each, so the row
		// headers are bounded by what was read.
		pd := &PartitionData{Name: name, Weights: make([]int, 0, min(np, growStep)), Tips: make([][]State, nTaxa)}
		for i := range pd.Freqs {
			if err := binary.Read(cr, binary.LittleEndian, &pd.Freqs[i]); err != nil {
				return nil, err
			}
		}
		for i := uint32(0); i < np; i++ {
			var w uint32
			if err := binary.Read(cr, binary.LittleEndian, &w); err != nil {
				return nil, err
			}
			pd.Weights = append(pd.Weights, int(w))
		}
		// np weights have arrived: every buffer below is a few times
		// what was read.
		packed := make([]byte, (np+1)/2)
		for t := 0; t < int(nTaxa); t++ {
			if _, err := io.ReadFull(cr, packed); err != nil {
				return nil, err
			}
			row := make([]State, np)
			for j := range row {
				b := packed[j/2]
				if j%2 == 0 {
					row[j] = State(b & 0x0f)
				} else {
					row[j] = State(b >> 4)
				}
				if row[j] == 0 {
					return nil, fmt.Errorf("msa: partition %q taxon %d pattern %d: zero state", name, t, j)
				}
			}
			pd.Tips[t] = row
		}
		d.Parts = append(d.Parts, pd)
	}
	sum := crc.Sum32()
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("msa: reading checksum: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("msa: checksum mismatch: file %08x, computed %08x", stored, sum)
	}
	return d, nil
}
