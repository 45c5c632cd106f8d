// Package mpinet is the TCP transport behind internal/mpi: it lets the
// ranks of a world run as separate OS processes (on one machine or
// many) while the deterministic binomial-tree collectives — and both
// parallelization schemes built on them — run unchanged.
//
// The package provides three layers (docs/NETWORKING.md):
//
//   - Framing: length-prefixed, typed frames carrying either handshake
//     JSON (control plane) or the binary mpi.Message encoding (data
//     plane). All integers and float64 bit patterns are little-endian
//     on the wire, so reductions stay bit-identical across
//     byte-ordered boundaries — the §III-B replica-consistency
//     property now holds across real machines, not just goroutines.
//   - Rendezvous: one protocol forms the first world and every
//     recovered one. A coordinator (rank 0 at launch) listens; every
//     other process dials it, presents the run nonce, its rank and its
//     input digest, and learns the address book; the full mesh is then
//     built by the "higher rank dials lower rank" rule. All dials and
//     handshakes carry explicit timeouts and bounded retry with
//     exponential backoff — a missing peer fails the launch with a
//     diagnostic instead of hanging.
//   - Failure detection: every connection is heartbeated; a silent or
//     disconnected peer surfaces as *PeerDownError from Send/Recv,
//     which internal/mpi wraps in *mpi.CommError and the
//     internal/fault survivor-recovery path unwraps.
package mpinet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/mpi"
)

// Frame types. A frame is `uint32 payloadLen | uint8 type | payload`,
// with payloadLen counting only the payload bytes.
const (
	// frameHello opens every connection: JSON handshake with the run
	// nonce, the dialer's rank, and (to rank 0) its advertised address.
	frameHello = byte(iota + 1)
	// frameWelcome acknowledges a hello; from rank 0 it carries the
	// address book (JSON), on mesh connections it is empty.
	frameWelcome
	// frameData carries one binary-encoded mpi.Message.
	frameData
	// frameHeartbeat is an empty liveness probe.
	frameHeartbeat
	// frameBye announces a graceful close, distinguishing an orderly
	// shutdown from a peer crash.
	frameBye
)

// maxFramePayload bounds a frame so a corrupt or hostile length prefix
// cannot OOM the receiver. 1 GiB comfortably exceeds any descriptor,
// parameter matrix, or checkpoint this system ships.
const maxFramePayload = 1 << 30

// Message payload flags.
const (
	flagF64 = 1 << iota
	flagRaw
)

// appendMessage appends the binary encoding of m to dst:
//
//	uint64 seq | uint8 flags | [uint32 n | n×8 bytes F64] | [uint32 n | n bytes Raw]
//
// The nil/empty distinction of both slices survives the round trip
// (flags record presence; n records length), because mpi collectives
// pass nil payloads on non-root ranks.
func appendMessage(dst []byte, m mpi.Message) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	var flags byte
	if m.F64 != nil {
		flags |= flagF64
	}
	if m.Raw != nil {
		flags |= flagRaw
	}
	dst = append(dst, flags)
	if m.F64 != nil {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.F64)))
		for _, v := range m.F64 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	if m.Raw != nil {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Raw)))
		dst = append(dst, m.Raw...)
	}
	return dst
}

// decodeMessage parses the encoding appendMessage produced.
func decodeMessage(b []byte) (mpi.Message, error) {
	var m mpi.Message
	if len(b) < 9 {
		return m, fmt.Errorf("mpinet: data frame too short (%d bytes)", len(b))
	}
	m.Seq = binary.LittleEndian.Uint64(b)
	flags := b[8]
	b = b[9:]
	if flags&^(flagF64|flagRaw) != 0 {
		return m, fmt.Errorf("mpinet: data frame has unknown flags %#x", flags)
	}
	if flags&flagF64 != 0 {
		if len(b) < 4 {
			return m, fmt.Errorf("mpinet: data frame truncated in f64 length")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < 8*n {
			return m, fmt.Errorf("mpinet: data frame truncated: %d f64 values declared, %d bytes left", n, len(b))
		}
		m.F64 = make([]float64, n)
		for i := range m.F64 {
			m.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[8*n:]
	}
	if flags&flagRaw != 0 {
		if len(b) < 4 {
			return m, fmt.Errorf("mpinet: data frame truncated in raw length")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return m, fmt.Errorf("mpinet: data frame truncated: %d raw bytes declared, %d left", n, len(b))
		}
		m.Raw = make([]byte, n)
		copy(m.Raw, b)
		b = b[n:]
	}
	if len(b) != 0 {
		return m, fmt.Errorf("mpinet: data frame has %d trailing bytes", len(b))
	}
	return m, nil
}

// writeFrame writes one frame. The header and payload go out in a
// single Write so small frames (opcodes, heartbeats) are one segment.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 0, 5+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	if err == nil {
		sentCounters.count(typ, len(buf))
	}
	return err
}

// readFrame reads one frame, enforcing the payload bound.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("mpinet: frame payload of %d bytes exceeds the %d limit (corrupt stream?)", n, maxFramePayload)
	}
	typ = hdr[4]
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, fmt.Errorf("mpinet: frame truncated: %w", err)
		}
	}
	recvCounters.count(typ, 5+len(payload))
	return typ, payload, nil
}
