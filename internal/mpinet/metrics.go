package mpinet

import "repro/internal/metrics"

// Wire-level metrics on the process-wide registry. sendFrame and
// frameBuf.next are the choke points every byte of transport traffic
// passes through (data, heartbeats, rendezvous handshakes alike), so counting
// there covers the whole wire without touching any per-call site. The
// counters are pre-resolved per frame type into arrays indexed by the
// frame-type byte, so the hot path pays two atomic adds and no map or
// label lookup.

// frameTypeName labels a frame-type byte for metrics.
func frameTypeName(typ byte) string {
	switch typ {
	case frameHello:
		return "hello"
	case frameWelcome:
		return "welcome"
	case frameData:
		return "data"
	case frameHeartbeat:
		return "heartbeat"
	case frameBye:
		return "bye"
	}
	return "unknown"
}

var (
	framesSentVec = metrics.Default().CounterVec("mpinet_frames_sent_total",
		"Frames written to peers, by frame type.", "type")
	framesRecvVec = metrics.Default().CounterVec("mpinet_frames_received_total",
		"Frames read from peers, by frame type.", "type")
	bytesSentVec = metrics.Default().CounterVec("mpinet_bytes_sent_total",
		"Bytes written to peers including the 5-byte frame header, by frame type.", "type")
	bytesRecvVec = metrics.Default().CounterVec("mpinet_bytes_received_total",
		"Bytes read from peers including the 5-byte frame header, by frame type.", "type")

	dialRetries = metrics.Default().Counter("mpinet_dial_retries_total",
		"Re-dial attempts after a failed rendezvous or mesh dial.")
	heartbeatMisses = metrics.Default().Counter("mpinet_heartbeat_misses_total",
		"Peers declared down because no traffic arrived within the heartbeat timeout.")
	peerFailures = metrics.Default().Counter("mpinet_peer_failures_total",
		"Peer connections torn down by any failure (first failure per connection).")
)

// frameCounters pre-resolves (frames, bytes) counters per frame type;
// index 0 and out-of-range types map to the "unknown" slot.
type frameCounters struct {
	frames, bytes [frameBye + 2]*metrics.Counter
}

func newFrameCounters(frames, bytes *metrics.CounterVec) *frameCounters {
	fc := &frameCounters{}
	for t := range fc.frames {
		name := "unknown"
		if t >= 1 && t <= int(frameBye) {
			name = frameTypeName(byte(t))
		}
		fc.frames[t] = frames.With(name)
		fc.bytes[t] = bytes.With(name)
	}
	return fc
}

var (
	sentCounters = newFrameCounters(framesSentVec, bytesSentVec)
	recvCounters = newFrameCounters(framesRecvVec, bytesRecvVec)
)

// count records one frame of the given type and total wire length.
func (fc *frameCounters) count(typ byte, wireLen int) {
	i := int(typ)
	if i < 1 || i > int(frameBye) {
		i = len(fc.frames) - 1
	}
	fc.frames[i].Inc()
	fc.bytes[i].Add(float64(wireLen))
}
