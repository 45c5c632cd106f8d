// Package checkpoint provides binary checkpoint/restart of the search
// state. Because the de-centralized scheme replicates the complete search
// state (tree, branch lengths, model parameters) on every rank, a
// checkpoint can be written by any rank and a run can be resumed on *any*
// number of ranks — the property the paper's §V identifies as the
// foundation for fault tolerance.
//
// The format is little-endian, versioned, and CRC-protected like the
// binary alignment format. The header carries the body length and the
// CRC32 of the body, so a truncated or partially-written (stale)
// checkpoint is rejected with a precise diagnostic before any field is
// parsed; version 2 is the only framing read or written.
// PSR per-site rates are deliberately not stored: the search
// re-optimizes them in the first iteration after restart (they are
// re-derived every iteration anyway), which keeps checkpoints
// independent of the data distribution.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/tree"
)

const (
	stateMagic = "EXCK"
	// stateVersion is the version Write writes and Read accepts.
	stateVersion = 2
	// maxBodyLen bounds the declared body length of a checkpoint so a
	// corrupt header cannot OOM the reader.
	maxBodyLen = 1 << 31
)

// State is a restartable snapshot of the search.
type State struct {
	// Iteration is the number of completed outer search iterations.
	Iteration int
	// LnL is the log likelihood at snapshot time.
	LnL float64
	// Taxa are the taxon labels (sorted dataset order).
	Taxa []string
	// BLClasses is the branch-length linkage class count.
	BLClasses int
	// Edges serializes the topology: for each edge the two half-node IDs
	// and the per-class lengths.
	Edges []EdgeRecord
	// Shared is the per-partition (α + GTR) matrix.
	Shared [][]float64
}

// EdgeRecord is one serialized edge.
type EdgeRecord struct {
	// A and B are the half-node IDs of the endpoints.
	A, B int32
	// Lengths are the per-class branch lengths.
	Lengths []float64
}

// FromTree captures a tree into edge records.
func FromTree(t *tree.Tree) []EdgeRecord {
	var out []EdgeRecord
	for _, e := range t.Edges() {
		out = append(out, EdgeRecord{
			A:       int32(e.ID),
			B:       int32(e.Back.ID),
			Lengths: append([]float64(nil), e.Branch.Lengths...),
		})
	}
	return out
}

// BuildTree reconstructs the tree from the state.
func (s *State) BuildTree() (*tree.Tree, error) {
	t := tree.New(s.Taxa, s.BLClasses)
	for _, er := range s.Edges {
		if er.A < 0 || int(er.A) >= len(t.HalfNodes) || er.B < 0 || int(er.B) >= len(t.HalfNodes) {
			return nil, fmt.Errorf("checkpoint: edge references half-node out of range")
		}
		if len(er.Lengths) != s.BLClasses {
			return nil, fmt.Errorf("checkpoint: edge has %d length classes, state has %d", len(er.Lengths), s.BLClasses)
		}
		t.ConnectBranch(t.Node(int(er.A)), t.Node(int(er.B)), &tree.Branch{Lengths: append([]float64(nil), er.Lengths...)})
	}
	if err := t.Check(); err != nil {
		return nil, fmt.Errorf("checkpoint: reconstructed tree invalid: %w", err)
	}
	return t, nil
}

// writeBody serializes the versioned payload (everything between the
// header and, in v1, the trailing CRC).
func writeBody(w io.Writer, s *State) error {
	wr := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	wrString := func(str string) error {
		if err := wr(uint32(len(str))); err != nil {
			return err
		}
		_, err := w.Write([]byte(str))
		return err
	}

	if err := wr(uint64(s.Iteration)); err != nil {
		return err
	}
	if err := wr(math.Float64bits(s.LnL)); err != nil {
		return err
	}
	if err := wr(uint32(len(s.Taxa))); err != nil {
		return err
	}
	for _, name := range s.Taxa {
		if err := wrString(name); err != nil {
			return err
		}
	}
	if err := wr(uint32(s.BLClasses)); err != nil {
		return err
	}
	if err := wr(uint32(len(s.Edges))); err != nil {
		return err
	}
	for _, e := range s.Edges {
		if err := wr(e.A); err != nil {
			return err
		}
		if err := wr(e.B); err != nil {
			return err
		}
		for _, l := range e.Lengths {
			if err := wr(l); err != nil {
				return err
			}
		}
	}
	if err := wr(uint32(len(s.Shared))); err != nil {
		return err
	}
	for _, row := range s.Shared {
		if err := wr(uint32(len(row))); err != nil {
			return err
		}
		for _, v := range row {
			if err := wr(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// readBody parses the versioned payload.
//
// Every count is held to what the remaining bytes can encode before
// anything is sized from it, so a body of arbitrary bytes costs at most
// its own length in memory and an error.
func readBody(r *bytes.Reader) (*State, error) {
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	rdU32 := func() (uint32, error) {
		var v uint32
		err := rd(&v)
		return v, err
	}
	rdString := func() (string, error) {
		n, err := rdU32()
		if err != nil {
			return "", err
		}
		if n > 1<<16 {
			return "", fmt.Errorf("checkpoint: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	s := &State{}
	var iter uint64
	if err := rd(&iter); err != nil {
		return nil, err
	}
	s.Iteration = int(iter)
	var bits uint64
	if err := rd(&bits); err != nil {
		return nil, err
	}
	s.LnL = math.Float64frombits(bits)
	nTaxa, err := rdU32()
	if err != nil {
		return nil, err
	}
	if nTaxa < 3 || nTaxa > 1<<24 || int(nTaxa) > r.Len()/4 {
		return nil, fmt.Errorf("checkpoint: implausible taxon count %d", nTaxa)
	}
	s.Taxa = make([]string, nTaxa)
	for i := range s.Taxa {
		if s.Taxa[i], err = rdString(); err != nil {
			return nil, err
		}
	}
	cls, err := rdU32()
	if err != nil {
		return nil, err
	}
	if cls < 1 || cls > 1<<20 {
		return nil, fmt.Errorf("checkpoint: implausible class count %d", cls)
	}
	s.BLClasses = int(cls)
	nEdges, err := rdU32()
	if err != nil {
		return nil, err
	}
	if int(nEdges) != 2*int(nTaxa)-3 {
		return nil, fmt.Errorf("checkpoint: %d edges for %d taxa", nEdges, nTaxa)
	}
	if uint64(nEdges)*(8+8*uint64(cls)) > uint64(r.Len()) {
		return nil, fmt.Errorf("checkpoint: %d edges of %d lengths in %d bytes", nEdges, cls, r.Len())
	}
	s.Edges = make([]EdgeRecord, nEdges)
	for i := range s.Edges {
		if err := rd(&s.Edges[i].A); err != nil {
			return nil, err
		}
		if err := rd(&s.Edges[i].B); err != nil {
			return nil, err
		}
		s.Edges[i].Lengths = make([]float64, cls)
		for c := range s.Edges[i].Lengths {
			if err := rd(&s.Edges[i].Lengths[c]); err != nil {
				return nil, err
			}
		}
	}
	nShared, err := rdU32()
	if err != nil {
		return nil, err
	}
	if nShared > 1<<20 || int(nShared) > r.Len()/4 {
		return nil, fmt.Errorf("checkpoint: implausible partition count %d", nShared)
	}
	s.Shared = make([][]float64, nShared)
	for i := range s.Shared {
		rowLen, err := rdU32()
		if err != nil {
			return nil, err
		}
		if rowLen > 1<<10 || int(rowLen) > r.Len()/8 {
			return nil, fmt.Errorf("checkpoint: implausible row length %d", rowLen)
		}
		s.Shared[i] = make([]float64, rowLen)
		for j := range s.Shared[i] {
			if err := rd(&s.Shared[i][j]); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Write serializes the state in the current (v2) framing:
//
//	"EXCK" | uint32 version=2 | uint32 bodyLen | uint32 crc32(body) | body
//
// Putting length and checksum in the header lets Read reject truncated
// or stale files with a diagnostic before parsing a single field.
func Write(w io.Writer, s *State) error {
	var body bytes.Buffer
	if err := writeBody(&body, s); err != nil {
		return err
	}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, stateMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, stateVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(body.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(body.Bytes()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// Encode serializes the state to a byte slice (the exact on-disk image
// Write produces). fault.RunNet ships this over the wire so survivors
// agree on the most advanced replica after a failure.
func Encode(s *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a byte slice produced by Encode (or read from disk).
func Decode(b []byte) (*State, error) {
	return Read(bytes.NewReader(b))
}

// Read deserializes and verifies a state: length and checksum from the
// header are checked before any field is parsed.
func Read(r io.Reader) (*State, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(magic) != stateMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint file?)", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("checkpoint: reading version: %w", err)
	}
	if version != stateVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (this build reads v%d)", version, stateVersion)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:4])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if bodyLen > maxBodyLen {
		return nil, fmt.Errorf("checkpoint: implausible body length %d", bodyLen)
	}
	// Read what arrives, up to the declared length: a header claiming
	// more than the file holds costs no more memory than the file.
	body, err := io.ReadAll(io.LimitReader(br, int64(bodyLen)))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading body: %w", err)
	}
	if n := len(body); n != int(bodyLen) {
		return nil, fmt.Errorf("checkpoint: truncated: header declares %d body bytes, file has %d (interrupted write?)", bodyLen, n)
	}
	if extra, _ := br.Peek(1); len(extra) != 0 {
		return nil, fmt.Errorf("checkpoint: trailing garbage after %d-byte body", bodyLen)
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (have %08x, want %08x): corrupt or stale file", got, want)
	}
	rd := bytes.NewReader(body)
	s, err := readBody(rd)
	if err != nil {
		return nil, err
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("checkpoint: %d unparsed bytes inside checksummed body", rd.Len())
	}
	return s, nil
}
