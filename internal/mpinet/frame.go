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
//     disconnected peer surfaces as *PeerDownError from Send/Recv — a
//     silent one from the receive that waits on it, which reads its
//     peer's socket itself — which internal/mpi wraps in
//     *mpi.CommError and the internal/fault survivor-recovery path
//     unwraps.
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

// frameHeader is the length of a frame's header: the uint32 payload
// length and the type byte.
const frameHeader = 5

// appendDataFrame appends m to dst as one whole data frame, header
// included, so a send is one Write of a buffer it reuses.
func appendDataFrame(dst []byte, m mpi.Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameData)
	dst = appendMessage(dst, m)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeader))
	return dst
}

// writeFrame writes one frame. The header and payload go out in a
// single Write so small frames (opcodes, heartbeats) are one segment.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 0, frameHeader+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	return sendFrame(w, buf)
}

// sendFrame writes one encoded frame, header included, in one Write.
func sendFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	if err == nil {
		sentCounters.count(frame[4], len(frame))
	}
	return err
}

// errFrameTooLarge is the error of a frame header whose payload length
// exceeds maxFramePayload.
func errFrameTooLarge(n uint32) error {
	return fmt.Errorf("mpinet: frame payload of %d bytes exceeds the %d limit (corrupt stream?)", n, maxFramePayload)
}

// readFrame reads one frame from r, enforcing the payload bound: the
// handshakes' reads, before a transport's receives parse their frames in
// a frameBuf of their own. It parses in a frameBuf too, and reads no
// byte past the frame, so the connection's next reader loses nothing. Its
// buffer grows with the bytes that arrive, not with the length the
// header declares: a dialer's hello is read before anything is known of
// it.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	b := frameBuf{buf: make([]byte, handshakeBufMin)}
	var rerr error
	for {
		typ, payload, ok, err := b.next()
		if ok || err != nil {
			return typ, payload, err
		}
		if rerr != nil {
			return 0, nil, b.streamErr(rerr)
		}
		space := b.space()
		var n int
		n, rerr = r.Read(space[:min(len(space), b.missing())])
		b.filled(n)
	}
}

// handshakeBufMin is readFrame's first buffer size: a handshake's JSON
// fits.
const handshakeBufMin = 1 << 10

// frameBuf is a receive buffer. Reads fill its free tail (space, then
// filled), and next parses whole frames out of the unparsed bytes
// buf[r:w] in place, under the payload bound. The buffer is reused: it
// starts at its first size (frameBufMin for a connection's) and grows, by
// doubling, only while one frame does not fit, never past that frame's
// size, so a hostile length prefix costs at most twice the bytes that
// really came.
type frameBuf struct {
	buf  []byte
	r, w int
}

// frameBufMin is a connection's receive buffer's first size, bufio's
// default reader size times 16: a read takes all of a typical
// collective's frames.
const frameBufMin = 64 << 10

// next returns the next whole frame in the buffer, or ok false when the
// buffer holds only part of one. A payload aliases the buffer and stays
// valid until the next call of space; an empty payload is nil. An error
// is a header whose length exceeds maxFramePayload.
func (b *frameBuf) next() (typ byte, payload []byte, ok bool, err error) {
	if b.w-b.r < frameHeader {
		return 0, nil, false, nil
	}
	n := binary.LittleEndian.Uint32(b.buf[b.r:])
	if n > maxFramePayload {
		return 0, nil, false, errFrameTooLarge(n)
	}
	end := b.r + frameHeader + int(n)
	if end > b.w {
		return 0, nil, false, nil
	}
	typ = b.buf[b.r+4]
	if n > 0 {
		payload = b.buf[b.r+frameHeader : end : end]
	}
	b.r = end
	recvCounters.count(typ, frameHeader+int(n))
	return typ, payload, true, nil
}

// front returns the type of the frame at the front of the buffer and
// whether next has an answer for it: the whole frame, or the refusal of
// its header.
func (b *frameBuf) front() (typ byte, whole bool) {
	if b.w-b.r < frameHeader {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(b.buf[b.r:])
	return b.buf[b.r+4], n > maxFramePayload || b.r+frameHeader+int(n) <= b.w
}

// missing is how many more bytes the frame at the front needs: the rest
// of its header, or of its payload. Call it when next returned ok false
// and no error.
func (b *frameBuf) missing() int {
	if have := b.w - b.r; have < frameHeader {
		return frameHeader - have
	}
	return b.r + frameHeader + int(binary.LittleEndian.Uint32(b.buf[b.r:])) - b.w
}

// space returns the free tail the next read fills, never empty. When the
// tail is used up it moves the unparsed bytes to the front; when they
// fill the whole buffer — one unfinished frame — it doubles the buffer,
// up to that frame's size. Call next until it returns ok false before
// space, so a frame in progress has a valid header.
func (b *frameBuf) space() []byte {
	if b.r == b.w {
		b.r, b.w = 0, 0
	}
	if b.w < len(b.buf) {
		return b.buf[b.w:]
	}
	if b.r > 0 {
		b.w = copy(b.buf, b.buf[b.r:b.w])
		b.r = 0
		return b.buf[b.w:]
	}
	size := 2 * len(b.buf)
	if size == 0 {
		size = frameBufMin
	}
	if b.w >= frameHeader {
		if f := frameHeader + int(binary.LittleEndian.Uint32(b.buf)); f > b.w {
			size = min(size, f)
		}
	}
	buf := make([]byte, size)
	copy(buf, b.buf[:b.w])
	b.buf = buf
	return b.buf[b.w:]
}

// filled records that the last read put n bytes at the start of space.
func (b *frameBuf) filled(n int) { b.w += n }

// streamErr is what the read error err means where the stream stands:
// between frames it is err itself (a clean end is io.EOF); inside a
// frame it is a truncated frame, and an EOF there is unexpected.
func (b *frameBuf) streamErr(err error) error {
	if b.r == b.w {
		return err
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("mpinet: frame truncated: %w", err)
}
