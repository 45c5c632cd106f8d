package mpinet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// Config describes one rank's view of the rendezvous.
type Config struct {
	// Rank is this process's rank in [0, Size).
	Rank int
	// Size is the world size (number of processes).
	Size int
	// Addr is the rendezvous address (host:port). Rank 0 listens on it;
	// every other rank dials it.
	Addr string
	// Nonce identifies the run. Every rank must present the same value;
	// a mismatch (a stale worker from an earlier launch, a typo'd
	// address pointing at another run) is rejected at handshake time.
	Nonce uint64
	// Digest summarises the inputs every rank must share (the caller's
	// data and search settings). Rank 0 and a recovery coordinator refuse
	// a registration carrying a different digest, so ranks given
	// different inputs fail inside the rendezvous instead of at their
	// first mismatched collective.
	Digest uint64

	// DialTimeout bounds a single dial attempt (default 2s).
	DialTimeout time.Duration
	// DialRetries is the number of re-dials after the first failed
	// attempt, with exponential backoff (default 7). A peer that never
	// appears therefore fails the launch with a clear error instead of
	// hanging forever.
	DialRetries int
	// RendezvousTimeout bounds the whole world formation (default 30s).
	RendezvousTimeout time.Duration
	// HeartbeatInterval is the liveness probe period (default 200ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay silent before it is
	// declared down (default 3s).
	HeartbeatTimeout time.Duration
	// RecoveryWindow is how long a post-failure re-rendezvous
	// coordinator accepts survivors before sealing the new world
	// (default 2×HeartbeatTimeout; survivors detect the failure at
	// most one heartbeat timeout apart).
	RecoveryWindow time.Duration
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 2 * time.Second
}

func (c Config) dialRetries() int {
	if c.DialRetries > 0 {
		return c.DialRetries
	}
	return 7
}

func (c Config) rendezvousTimeout() time.Duration {
	if c.RendezvousTimeout > 0 {
		return c.RendezvousTimeout
	}
	return 30 * time.Second
}

func (c Config) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 200 * time.Millisecond
}

func (c Config) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout > 0 {
		return c.HeartbeatTimeout
	}
	return 3 * time.Second
}

func (c Config) recoveryWindow() time.Duration {
	if c.RecoveryWindow > 0 {
		return c.RecoveryWindow
	}
	return 2 * c.heartbeatTimeout()
}

func (c Config) check() error {
	if c.Size < 1 {
		return fmt.Errorf("mpinet: world size %d", c.Size)
	}
	if c.Rank < 0 || c.Rank >= c.Size {
		return fmt.Errorf("mpinet: rank %d out of range [0,%d)", c.Rank, c.Size)
	}
	if c.Addr == "" {
		return fmt.Errorf("mpinet: rendezvous address is required")
	}
	if _, _, err := net.SplitHostPort(c.Addr); err != nil {
		return fmt.Errorf("mpinet: bad rendezvous address %q: %w", c.Addr, err)
	}
	return nil
}

// ReserveLoopbackAddr picks a free loopback rendezvous address by
// binding port 0 and releasing it. Another process can take the port
// before rank 0 binds it again: a launcher that starts processes
// cannot hand them an open listener (docs/NETWORKING.md).
func ReserveLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// hello is the JSON payload of a frameHello.
type hello struct {
	// Nonce must match the run nonce (recovery epochs mix the epoch in).
	Nonce uint64 `json:"nonce"`
	// Rank is the dialer's rank — world rank on initial rendezvous and
	// mesh connections, pre-failure rank on recovery registration.
	Rank int `json:"rank"`
	// Size is the dialer's expected world size (validated by rank 0).
	Size int `json:"size"`
	// Addr is the dialer's advertised mesh listener (registration only).
	Addr string `json:"addr,omitempty"`
	// Meta is caller state exchanged during recovery (the survivor's
	// newest checkpoint iteration).
	Meta uint64 `json:"meta,omitempty"`
	// Digest is the dialer's Config.Digest (registration only).
	Digest uint64 `json:"digest,omitempty"`
}

// errRefused marks a handshake the other side turned away with a reason.
var errRefused = errors.New("registration refused")

// refusal is the JSON payload of the frameBye that turns a registration
// away, so the refused rank can report why.
type refusal struct {
	Reason string `json:"reason"`
}

// welcome is the JSON payload of a frameWelcome.
type welcome struct {
	// Size is the (possibly re-formed) world size.
	Size int `json:"size"`
	// Rank is the receiver's rank in that world.
	Rank int `json:"rank"`
	// Book maps rank → advertised address (rank 0's entry is the
	// rendezvous address itself).
	Book []string `json:"book,omitempty"`
	// Metas and OldRanks carry every member's hello.Meta and the rank
	// it registered as — at launch its own, in recovery its
	// pre-failure rank (indexed by new rank).
	Metas    []uint64 `json:"metas,omitempty"`
	OldRanks []int    `json:"old_ranks,omitempty"`
}

func sendJSONFrame(c net.Conn, deadline time.Time, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	c.SetWriteDeadline(deadline)
	return writeFrame(c, typ, payload)
}

func readJSONFrame(c net.Conn, deadline time.Time, wantTyp byte, v any) error {
	c.SetReadDeadline(deadline)
	typ, payload, err := readFrame(c)
	if err != nil {
		return err
	}
	return decodeFrame(typ, payload, wantTyp, v)
}

// decodeFrame decodes a handshake frame's JSON payload into v (nil
// skips it). A frame of another type is an error; a bye carrying a
// reason is errRefused with that reason.
func decodeFrame(typ byte, payload []byte, wantTyp byte, v any) error {
	if typ != wantTyp {
		var r refusal
		if typ == frameBye && json.Unmarshal(payload, &r) == nil && r.Reason != "" {
			return fmt.Errorf("%w: %s", errRefused, r.Reason)
		}
		return fmt.Errorf("mpinet: expected frame type %d during handshake, got %d", wantTyp, typ)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(payload, v)
}

// refuseInputs turns away a registration whose input digest differs
// from this process's. The peer is told why before the connection
// closes, so both sides fail inside the rendezvous.
func refuseInputs(c net.Conn, deadline time.Time, self string, h hello, digest uint64) error {
	reason := fmt.Sprintf("rank %d's inputs differ from %s's (input digest %016x, want %016x)", h.Rank, self, h.Digest, digest)
	sendJSONFrame(c, deadline, frameBye, &refusal{Reason: reason})
	c.Close()
	return fmt.Errorf("mpinet: %s: %w: %s", self, errRefused, reason)
}

// dialRetry dials addr with per-attempt timeouts and exponential
// backoff, bounded by both the retry budget and the overall deadline.
func dialRetry(addr string, cfg Config, deadline time.Time, what string) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	attempts := cfg.dialRetries() + 1
	var lastErr error
	for i := 0; i < attempts; i++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		to := cfg.dialTimeout()
		if to > remaining {
			to = remaining
		}
		c, err := net.DialTimeout("tcp", addr, to)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if i == attempts-1 {
			break
		}
		dialRetries.Inc()
		sleep := backoff
		if rem := time.Until(deadline); sleep > rem {
			sleep = rem
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("mpinet: rank %d: dialing %s at %s failed after %d attempts (last error: %v)",
		cfg.Rank, what, addr, attempts, lastErr)
}

// Connect performs the initial rendezvous and returns this rank's
// transport: rank 0 coordinates on cfg.Addr and every other rank joins
// (see rendezvous). All phases respect cfg.RendezvousTimeout, so a
// missing or misconfigured peer produces an error naming what was being
// waited for.
func Connect(cfg Config) (*Transport, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.Size == 1 {
		return newTransport(0, 1, cfg.Nonce, nil, cfg), nil
	}
	rv := newRendezvous(cfg, cfg.Addr, 0, 0)
	var w *RecoveredWorld
	var err error
	if cfg.Rank == 0 {
		ln, lerr := net.Listen("tcp", cfg.Addr)
		if lerr != nil {
			return nil, fmt.Errorf("mpinet: rank 0: listening on %s: %w", cfg.Addr, lerr)
		}
		w, err = rv.coordinate(ln)
	} else {
		w, err = rv.join()
	}
	if err != nil {
		return nil, err
	}
	return w.Transport, nil
}

// A rendezvous forms one world, the first at launch (epoch 0) or the
// survivors' after a failure (epoch ≥ 1), by one protocol: a
// coordinator takes a hello from each joiner, checks its nonce, rank
// and input digest, seals the membership and publishes the world in a
// welcome; the joiners then complete the mesh. Launch and recovery
// differ in who coordinates (rank 0; the first survivor to bind the
// epoch's port), when registration seals (once every rank has
// registered, the deadline being an error; once every rank has or the
// recovery window ends) and what becomes of a registration that does
// not fit (an error; skipped, its size unchecked) — docs/NETWORKING.md
// §Rendezvous.
type rendezvous struct {
	// cfg is this process's view of the world being formed or
	// replaced: its Rank and Size are the ones its hello presents.
	cfg   Config
	addr  string // the coordinator's listen address
	epoch int
	nonce uint64
	meta  uint64 // this process's hello.Meta
	words *rendezvousText
	// deadline bounds dials, handshakes and the mesh; seal ends
	// registration; helloBy bounds reading one registration; answerBy
	// bounds a joiner's wait for the welcome.
	deadline, seal, helloBy, answerBy time.Time
}

func newRendezvous(cfg Config, addr string, epoch int, meta uint64) *rendezvous {
	rv := &rendezvous{cfg: cfg, addr: addr, epoch: epoch, nonce: cfg.Nonce + uint64(epoch), meta: meta,
		words: &rendezvousWords[min(epoch, 1)]}
	now := time.Now()
	rv.deadline = now.Add(cfg.rendezvousTimeout())
	rv.seal, rv.helloBy, rv.answerBy = rv.deadline, rv.deadline, rv.deadline
	if epoch > 0 {
		// Survivors detect a failure at most one heartbeat timeout
		// apart: the window waits for them, and a joiner waits a window
		// more for the coordinator's.
		window := cfg.recoveryWindow()
		rv.seal = now.Add(window)
		rv.deadline = rv.seal.Add(cfg.rendezvousTimeout())
		rv.helloBy = rv.seal.Add(cfg.dialTimeout())
		rv.answerBy = rv.deadline.Add(window)
	}
	return rv
}

// coordinate is the coordinator's side, on a listener bound to rv.addr:
// take registrations until every other rank of cfg's world has
// registered or the seal, then publish the world. The coordinator is
// its rank 0 and the members follow in the order of their registered
// ranks, so every member derives the same layout; at launch, where
// every rank registers, that is each rank's own.
func (rv *rendezvous) coordinate(ln net.Listener) (*RecoveredWorld, error) {
	cfg, recovery := rv.cfg, rv.epoch > 0
	conns := make([]net.Conn, cfg.Size) // by registered rank
	hellos := make([]hello, cfg.Size)
	hellos[cfg.Rank] = hello{Addr: rv.addr, Meta: rv.meta}
	fail := func(err error) (*RecoveredWorld, error) {
		ln.Close()
		closeAll(conns)
		return nil, err
	}
	for got := 1; got < cfg.Size; {
		ln.(*net.TCPListener).SetDeadline(rv.seal)
		c, err := ln.Accept()
		if err != nil {
			if recovery {
				break // the window sealed
			}
			return fail(fmt.Errorf("mpinet: rank 0: rendezvous timed out with %d of %d ranks registered (missing: %v): %w",
				got, cfg.Size, missingRanks(conns, cfg.Size), err))
		}
		h, verdict, why := hello{}, dropped, ""
		c.SetReadDeadline(rv.helloBy)
		if typ, payload, err := readFrame(c); err == nil {
			h, verdict, why = rv.admit(typ, payload, conns)
		}
		switch verdict {
		case stale:
			sendJSONFrame(c, rv.helloBy, frameBye, nil)
			fallthrough
		case dropped:
			c.Close()
			continue
		case foreign:
			return fail(refuseInputs(c, rv.helloBy, rv.words.self, h, cfg.Digest))
		case unseated:
			c.Close()
			if recovery {
				continue
			}
			return fail(fmt.Errorf("mpinet: rank 0: %s", why))
		}
		conns[h.Rank], hellos[h.Rank] = c, h
		got++
	}

	// Seal.
	old := []int{cfg.Rank}
	for r, c := range conns {
		if c != nil {
			old = append(old, r)
		}
	}
	size := len(old)
	w := welcome{Size: size, Book: make([]string, size), Metas: make([]uint64, size), OldRanks: old}
	members := make([]net.Conn, size)
	for i, r := range old {
		w.Book[i], w.Metas[i], members[i] = hellos[r].Addr, hellos[r].Meta, conns[r]
	}
	for w.Rank = 1; w.Rank < size; w.Rank++ {
		if err := sendJSONFrame(members[w.Rank], rv.deadline, frameWelcome, &w); err != nil {
			return fail(fmt.Errorf(rv.words.publishFailed, w.Rank, old[w.Rank], err))
		}
	}
	clearDeadlines(members)
	wcfg := cfg
	wcfg.Rank, wcfg.Size = 0, size
	t := newTransport(0, size, rv.nonce, members, wcfg)
	if recovery {
		// Keep the recovery port bound for the epoch's lifetime so a
		// survivor that missed the window cannot rebind it and
		// split-brain.
		t.held = ln
	} else {
		ln.Close()
	}
	return &RecoveredWorld{Transport: t, Rank: 0, Size: size, OldRanks: old, Metas: w.Metas}, nil
}

// An admission is what a coordinator does with one registration.
type admission int

const (
	admitted admission = iota // seat the hello's rank
	dropped                   // not a process of ours: close, keep waiting
	stale                     // another run's or epoch's: bye, close, keep waiting
	unseated                  // no seat for its rank: an error at launch, skipped in recovery
	foreign                   // other inputs: refuse it, fail the rendezvous
)

// admit decides the registration a joiner's connection opened with, a
// frame of type typ, given conns, the registrations so far by rank: a
// hello of the run's nonce and inputs, for a rank in [0, Size) that is
// neither the coordinator's nor registered yet, and at launch for a
// world of Size, is admitted. A recovery registration's size is not
// checked: a replacement rank registers with the job's launch size,
// which a shrunken world is smaller than. why says why an unseated
// registration has no seat.
func (rv *rendezvous) admit(typ byte, payload []byte, conns []net.Conn) (h hello, a admission, why string) {
	cfg := rv.cfg
	switch {
	case decodeFrame(typ, payload, frameHello, &h) != nil:
		return h, dropped, ""
	case h.Nonce != rv.nonce:
		return h, stale, ""
	case h.Rank < 0 || h.Rank >= cfg.Size || h.Rank == cfg.Rank || rv.epoch == 0 && h.Size != cfg.Size:
		return h, unseated, fmt.Sprintf("peer registered as rank %d of %d, want a rank in [1,%d) of %d (mismatched -net-size?)",
			h.Rank, h.Size, cfg.Size, cfg.Size)
	case conns[h.Rank] != nil:
		return h, unseated, fmt.Sprintf("two peers registered as rank %d (duplicate -net-rank?)", h.Rank)
	case h.Digest != cfg.Digest:
		return h, foreign, ""
	}
	return h, admitted, ""
}

// rendezvousText is every error text that differs between launch and
// recovery: the coordinator's name for itself (self) and a joiner's
// for it (coordinator; dialing as it dials), a joiner's name for
// itself, and the formats of a failed welcome send (the member's new
// rank, its registered rank, the error), of a missing welcome and of
// one that does not seat its joiner (size, rank).
type rendezvousText struct {
	self, publishFailed, coordinator, dialing, noWelcome, badWelcome string
	joiner                                                           func(rank int) string
}

// rendezvousWords holds every rendezvous text, at launch ([0]) and in
// recovery ([1]).
var rendezvousWords = [2]rendezvousText{{
	self:          "rank 0",
	publishFailed: "mpinet: rank 0: sending address book to rank %[1]d: %[3]w",
	joiner:        func(rank int) string { return fmt.Sprintf("rank %d", rank) },
	coordinator:   "rank 0",
	dialing:       "rank 0 (rendezvous)",
	noWelcome:     "waiting for the address book from rank 0 (is every rank launched?)",
	badWelcome:    "rank 0 answered with size %d / rank %d (mismatched launch configuration)",
}, {
	self:          "the recovery coordinator",
	publishFailed: "mpinet: recovery coordinator: publishing the new world to survivor %[1]d (old rank %[2]d): %[3]w",
	joiner:        func(int) string { return "recovery" },
	coordinator:   "the coordinator",
	dialing:       "recovery coordinator",
	noWelcome:     "missed the membership window (the survivors may have re-formed without this rank)",
	badWelcome:    "malformed world announcement (size %d, rank %d)",
}}

// join is a joiner's side: register with the coordinator at rv.addr,
// read and check the welcome, then dial every lower-ranked member and
// accept every higher-ranked one.
func (rv *rendezvous) join() (*RecoveredWorld, error) {
	cfg, words := rv.cfg, rv.words
	who := words.joiner(cfg.Rank)
	// The mesh listener comes up before registration so that any peer
	// dialing us after reading the book always finds an open socket.
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("mpinet: %s: opening mesh listener: %w", who, err)
	}
	defer ln.Close()

	coord, err := dialRetry(rv.addr, cfg, rv.deadline, words.dialing)
	if err != nil {
		return nil, err
	}
	conns := []net.Conn{coord}
	fail := func(err error) (*RecoveredWorld, error) {
		closeAll(conns)
		return nil, err
	}
	// Advertise the address this host is reachable at on the route to
	// the coordinator, with the mesh listener's port.
	localIP := coord.LocalAddr().(*net.TCPAddr).IP
	advertise := net.JoinHostPort(localIP.String(), strconv.Itoa(ln.Addr().(*net.TCPAddr).Port))
	h := hello{Nonce: rv.nonce, Rank: cfg.Rank, Size: cfg.Size, Addr: advertise, Meta: rv.meta, Digest: cfg.Digest}
	if err := sendJSONFrame(coord, rv.deadline, frameHello, &h); err != nil {
		return fail(fmt.Errorf("mpinet: %s: registering with %s: %w", who, words.coordinator, err))
	}
	// The coordinator answers once registration seals.
	coord.SetReadDeadline(rv.answerBy)
	typ, payload, err := readFrame(coord)
	var w welcome
	if err == nil {
		w, err = rv.decodeWelcome(typ, payload)
	}
	switch {
	case errors.Is(err, errRefused):
		return fail(fmt.Errorf("mpinet: %s: %w", who, err))
	case errors.Is(err, errMalformed):
		return fail(fmt.Errorf("mpinet: %s: "+words.badWelcome, who, w.Size, w.Rank))
	case err != nil:
		return fail(fmt.Errorf("mpinet: %s: %s: %w", who, words.noWelcome, err))
	}

	conns = append(conns, make([]net.Conn, w.Size-1)...)
	if err := meshConnect(conns, ln, w.Rank, rv.nonce, w.Book, cfg, rv.deadline); err != nil {
		return fail(err)
	}
	clearDeadlines(conns)
	wcfg := cfg
	wcfg.Rank, wcfg.Size = w.Rank, w.Size
	return &RecoveredWorld{
		Transport: newTransport(w.Rank, w.Size, rv.nonce, conns, wcfg),
		Rank:      w.Rank,
		Size:      w.Size,
		OldRanks:  w.OldRanks,
		Metas:     w.Metas,
	}, nil
}

// errMalformed marks a welcome that does not describe a world its
// joiner can take its place in.
var errMalformed = errors.New("malformed welcome")

// decodeWelcome decodes the frame a joiner reads after registering: a
// welcome, or a refusal (errRefused with the coordinator's reason). A
// welcome must seat the joiner in a world no larger than the one it
// registered for: Book, Metas and OldRanks hold one entry per member,
// the joiner's rank is in [1, Size) and its OldRanks entry is the rank
// it registered as. At launch the world must be the registered one and
// the rank the joiner's own. Anything else is errMalformed.
func (rv *rendezvous) decodeWelcome(typ byte, payload []byte) (welcome, error) {
	var w welcome
	if err := decodeFrame(typ, payload, frameWelcome, &w); err != nil {
		return w, err
	}
	cfg := rv.cfg
	if w.Rank < 1 || w.Rank >= w.Size || w.Size > cfg.Size ||
		len(w.Book) != w.Size || len(w.Metas) != w.Size || len(w.OldRanks) != w.Size ||
		w.OldRanks[w.Rank] != cfg.Rank || rv.epoch == 0 && (w.Size != cfg.Size || w.Rank != cfg.Rank) {
		return w, errMalformed
	}
	return w, nil
}

// meshConnect completes the full mesh for a non-coordinator rank:
// dial every lower-ranked peer in the book (skipping the coordinator,
// already connected), then accept every higher-ranked peer. conns must
// already hold the coordinator connection at index 0.
func meshConnect(conns []net.Conn, ln net.Listener, rank int, nonce uint64, book []string, cfg Config, deadline time.Time) error {
	size := len(book)
	for j := 1; j < rank; j++ {
		c, err := dialRetry(book[j], cfg, deadline, fmt.Sprintf("rank %d (mesh)", j))
		if err != nil {
			return err
		}
		h := hello{Nonce: nonce, Rank: rank, Size: size}
		if err := sendJSONFrame(c, deadline, frameHello, &h); err != nil {
			c.Close()
			return fmt.Errorf("mpinet: rank %d: mesh handshake with rank %d: %w", rank, j, err)
		}
		if err := readJSONFrame(c, deadline, frameWelcome, nil); err != nil {
			c.Close()
			return fmt.Errorf("mpinet: rank %d: mesh handshake with rank %d not acknowledged: %w", rank, j, err)
		}
		conns[j] = c
	}
	for need := size - rank - 1; need > 0; {
		ln.(*net.TCPListener).SetDeadline(deadline)
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mpinet: rank %d: mesh rendezvous timed out waiting for %d higher-ranked peer(s): %w", rank, need, err)
		}
		var h hello
		if err := readJSONFrame(c, deadline, frameHello, &h); err != nil {
			c.Close()
			continue
		}
		if h.Nonce != nonce || h.Rank <= rank || h.Rank >= size || conns[h.Rank] != nil {
			c.Close()
			continue
		}
		if err := sendJSONFrame(c, deadline, frameWelcome, &welcome{Size: size, Rank: h.Rank}); err != nil {
			c.Close()
			continue
		}
		conns[h.Rank] = c
		need--
	}
	return nil
}

func missingRanks(conns []net.Conn, size int) []int {
	var missing []int
	for r := 1; r < size; r++ {
		if conns[r] == nil {
			missing = append(missing, r)
		}
	}
	return missing
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

func clearDeadlines(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.SetDeadline(time.Time{})
		}
	}
}

// RecoveredWorld is the outcome of a post-failure re-rendezvous (and,
// inside the package, of Connect's, which keeps only the Transport).
type RecoveredWorld struct {
	// Transport is the survivor mesh.
	Transport *Transport
	// Rank and Size are this process's position in the new world.
	Rank, Size int
	// OldRanks[newRank] is each member's pre-failure rank.
	OldRanks []int
	// Metas[newRank] is each member's hello meta value (fault.RunNet
	// passes the newest locally held checkpoint iteration, so the
	// survivors can agree on the most advanced replica to restore
	// from).
	Metas []uint64
}

// recoveryPort is the port epoch e's recovery rendezvous listens on: the
// e-th odd port above base — base + 2e for an odd base, base + 2e − 1 for
// an even one. Linux hands out ephemeral ports by parity: bind(0) (how
// ReserveLoopbackAddr picks a base) gets the odd ones, and connect()
// takes its source ports from the even ones, so base + 1 is where a
// process's outgoing connections land and a survivor could find it held.
// Odd ports keep the recovery rendezvous off connect()'s half. This is a
// Linux mitigation: another process's bind(0) may still hold the port.
func recoveryPort(base, epoch int) int {
	return base + 2*epoch - (base+1)%2
}

// Recover re-forms the world among the survivors of a peer failure.
// Every survivor calls it with its config in the failed world, the
// recovery epoch (1 for the first failure, incrementing), and its meta
// value. The recovery rendezvous listens on the epoch's odd port above
// the base port (recoveryPort): the first survivor to bind it
// coordinates (new rank 0) and seals the
// membership once every other rank has registered or after
// cfg.RecoveryWindow; the rest join as in Connect. Survivors that miss
// the window get an error — the sealed world continues without them.
func Recover(base Config, epoch int, meta uint64) (*RecoveredWorld, error) {
	if err := base.check(); err != nil {
		return nil, err
	}
	if epoch < 1 {
		return nil, fmt.Errorf("mpinet: recovery epoch %d", epoch)
	}
	host, portStr, err := net.SplitHostPort(base.Addr)
	if err != nil {
		return nil, fmt.Errorf("mpinet: bad rendezvous address %q: %w", base.Addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("mpinet: rendezvous address %q needs a numeric port for recovery: %w", base.Addr, err)
	}
	rv := newRendezvous(base, net.JoinHostPort(host, strconv.Itoa(recoveryPort(port, epoch))), epoch, meta)
	if ln, err := net.Listen("tcp", rv.addr); err == nil {
		return rv.coordinate(ln)
	}
	return rv.join()
}
