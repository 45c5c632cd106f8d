package mpinet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
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
	// Metas and OldRanks carry every member's hello.Meta and
	// pre-failure rank on recovery (indexed by new rank).
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
// transport. Rank 0 listens on cfg.Addr and collects a registration
// (rank ID + run nonce + advertised mesh address) from every other
// rank, then publishes the address book; the remaining mesh edges are
// built by the deterministic "higher rank dials lower rank" rule. All
// phases respect cfg.RendezvousTimeout, so a missing or misconfigured
// peer produces an error naming what was being waited for.
func Connect(cfg Config) (*Transport, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.rendezvousTimeout())
	if cfg.Size == 1 {
		return newTransport(0, 1, cfg.Nonce, nil, cfg), nil
	}
	if cfg.Rank == 0 {
		return connectRoot(cfg, deadline)
	}
	return connectPeer(cfg, deadline)
}

// connectRoot is rank 0: accept a registration from every peer, then
// publish the book.
func connectRoot(cfg Config, deadline time.Time) (*Transport, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("mpinet: rank 0: listening on %s: %w", cfg.Addr, err)
	}
	defer ln.Close()

	conns := make([]net.Conn, cfg.Size)
	book := make([]string, cfg.Size)
	book[0] = cfg.Addr
	got := 0
	cleanup := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for got < cfg.Size-1 {
		ln.(*net.TCPListener).SetDeadline(deadline)
		c, err := ln.Accept()
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("mpinet: rank 0: rendezvous timed out with %d of %d ranks registered (missing: %v): %w",
				got+1, cfg.Size, missingRanks(conns, cfg.Size), err)
		}
		var h hello
		if err := readJSONFrame(c, deadline, frameHello, &h); err != nil {
			c.Close() // not a worker of ours; keep waiting
			continue
		}
		switch {
		case h.Nonce != cfg.Nonce:
			sendJSONFrame(c, deadline, frameBye, nil)
			c.Close()
			continue // stale worker from another run
		case h.Rank < 1 || h.Rank >= cfg.Size || h.Size != cfg.Size:
			cleanup()
			c.Close()
			return nil, fmt.Errorf("mpinet: rank 0: peer registered as rank %d of %d, want a rank in [1,%d) of %d (mismatched -net-size?)",
				h.Rank, h.Size, cfg.Size, cfg.Size)
		case h.Digest != cfg.Digest:
			cleanup()
			return nil, refuseInputs(c, deadline, "rank 0", h, cfg.Digest)
		case conns[h.Rank] != nil:
			cleanup()
			c.Close()
			return nil, fmt.Errorf("mpinet: rank 0: two peers registered as rank %d (duplicate -net-rank?)", h.Rank)
		}
		conns[h.Rank] = c
		book[h.Rank] = h.Addr
		got++
	}
	for r := 1; r < cfg.Size; r++ {
		w := welcome{Size: cfg.Size, Rank: r, Book: book}
		if err := sendJSONFrame(conns[r], deadline, frameWelcome, &w); err != nil {
			cleanup()
			return nil, fmt.Errorf("mpinet: rank 0: sending address book to rank %d: %w", r, err)
		}
	}
	clearDeadlines(conns)
	return newTransport(0, cfg.Size, cfg.Nonce, conns, cfg), nil
}

// connectPeer is every rank > 0: register with rank 0, learn the book,
// dial every lower rank, accept every higher rank.
func connectPeer(cfg Config, deadline time.Time) (*Transport, error) {
	// The mesh listener comes up before registration so that any peer
	// dialing us after reading the book always finds an open socket.
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("mpinet: rank %d: opening mesh listener: %w", cfg.Rank, err)
	}
	defer ln.Close()

	root, err := dialRetry(cfg.Addr, cfg, deadline, "rank 0 (rendezvous)")
	if err != nil {
		return nil, err
	}
	// Advertise the address this host is reachable at on the route to
	// rank 0, with the mesh listener's port.
	localIP := root.LocalAddr().(*net.TCPAddr).IP
	meshPort := ln.Addr().(*net.TCPAddr).Port
	advertise := net.JoinHostPort(localIP.String(), strconv.Itoa(meshPort))

	h := hello{Nonce: cfg.Nonce, Rank: cfg.Rank, Size: cfg.Size, Addr: advertise, Digest: cfg.Digest}
	if err := sendJSONFrame(root, deadline, frameHello, &h); err != nil {
		root.Close()
		return nil, fmt.Errorf("mpinet: rank %d: registering with rank 0: %w", cfg.Rank, err)
	}
	var w welcome
	if err := readJSONFrame(root, deadline, frameWelcome, &w); err != nil {
		root.Close()
		if errors.Is(err, errRefused) {
			return nil, fmt.Errorf("mpinet: rank %d: %w", cfg.Rank, err)
		}
		return nil, fmt.Errorf("mpinet: rank %d: waiting for the address book from rank 0 (is every rank launched?): %w", cfg.Rank, err)
	}
	if w.Size != cfg.Size || w.Rank != cfg.Rank || len(w.Book) != cfg.Size {
		root.Close()
		return nil, fmt.Errorf("mpinet: rank %d: rank 0 answered with size %d / rank %d (mismatched launch configuration)", cfg.Rank, w.Size, w.Rank)
	}

	conns := make([]net.Conn, cfg.Size)
	conns[0] = root
	cleanup := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	if err := meshConnect(conns, ln, cfg.Rank, cfg.Nonce, w.Book, cfg, deadline); err != nil {
		cleanup()
		return nil, err
	}
	clearDeadlines(conns)
	return newTransport(cfg.Rank, cfg.Size, cfg.Nonce, conns, cfg), nil
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

func clearDeadlines(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.SetDeadline(time.Time{})
		}
	}
}

// RecoveredWorld is the outcome of a post-failure re-rendezvous.
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

// Recover re-forms the world among the survivors of a peer failure.
// Every survivor calls it with the original rendezvous config, the
// recovery epoch (1 for the first failure, incrementing), and its meta
// value. The recovery rendezvous listens on the base port + epoch: the
// first survivor to bind becomes the coordinator (new rank 0) and
// seals the membership after cfg.RecoveryWindow; the rest register
// exactly as in Connect. Survivors that miss the window get an error —
// the sealed world continues without them.
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
	addr := net.JoinHostPort(host, strconv.Itoa(port+epoch))
	nonce := base.Nonce + uint64(epoch)
	window := base.recoveryWindow()
	deadline := time.Now().Add(window + base.rendezvousTimeout())

	if ln, lerr := net.Listen("tcp", addr); lerr == nil {
		return recoverCoordinate(base, ln, nonce, meta, window)
	}
	return recoverJoin(base, addr, nonce, meta, window, deadline)
}

// member is one registered survivor during recovery coordination.
type member struct {
	oldRank int
	meta    uint64
	addr    string
	conn    net.Conn
}

// recoverCoordinate runs the coordinator side: collect survivors for
// the window, seal, assign dense new ranks, publish the book.
func recoverCoordinate(base Config, ln net.Listener, nonce, meta uint64, window time.Duration) (*RecoveredWorld, error) {
	ok := false
	defer func() {
		if !ok {
			ln.Close()
		}
	}()
	seal := time.Now().Add(window)
	var members []member
	cleanup := func() {
		for _, m := range members {
			m.conn.Close()
		}
	}
	for len(members) < base.Size-1 {
		ln.(*net.TCPListener).SetDeadline(seal)
		c, err := ln.Accept()
		if err != nil {
			break // window sealed
		}
		var h hello
		if err := readJSONFrame(c, seal.Add(base.dialTimeout()), frameHello, &h); err != nil {
			c.Close()
			continue
		}
		if h.Nonce != nonce || h.Rank < 0 || h.Rank >= base.Size || h.Rank == base.Rank {
			c.Close()
			continue
		}
		dup := false
		for _, m := range members {
			if m.oldRank == h.Rank {
				dup = true
				break
			}
		}
		if dup {
			c.Close()
			continue
		}
		if h.Digest != base.Digest {
			cleanup()
			return nil, refuseInputs(c, seal.Add(base.dialTimeout()), "the recovery coordinator", h, base.Digest)
		}
		members = append(members, member{oldRank: h.Rank, meta: h.Meta, addr: h.Addr, conn: c})
	}
	// Seal: the coordinator is new rank 0; survivors follow in old-rank
	// order, giving every member the identical, deterministic layout.
	sort.Slice(members, func(i, j int) bool { return members[i].oldRank < members[j].oldRank })
	size := len(members) + 1
	book := make([]string, size)
	metas := make([]uint64, size)
	oldRanks := make([]int, size)
	book[0] = ln.Addr().String()
	metas[0] = meta
	oldRanks[0] = base.Rank
	conns := make([]net.Conn, size)
	for i, m := range members {
		book[i+1] = m.addr
		metas[i+1] = m.meta
		oldRanks[i+1] = m.oldRank
		conns[i+1] = m.conn
	}
	sendDeadline := time.Now().Add(base.rendezvousTimeout())
	for r := 1; r < size; r++ {
		w := welcome{Size: size, Rank: r, Book: book, Metas: metas, OldRanks: oldRanks}
		if err := sendJSONFrame(conns[r], sendDeadline, frameWelcome, &w); err != nil {
			cleanup()
			return nil, fmt.Errorf("mpinet: recovery coordinator: publishing the new world to survivor %d (old rank %d): %w", r, oldRanks[r], err)
		}
	}
	clearDeadlines(conns)
	cfg := base
	cfg.Rank, cfg.Size = 0, size
	t := newTransport(0, size, nonce, conns, cfg)
	// Keep the recovery port bound for the epoch's lifetime so a
	// survivor that missed the window cannot rebind it and split-brain.
	t.held = ln
	ok = true
	return &RecoveredWorld{
		Transport: t,
		Rank:      0,
		Size:      size,
		OldRanks:  oldRanks,
		Metas:     metas,
	}, nil
}

// recoverJoin runs the non-coordinator side: register, learn the new
// world, build the survivor mesh.
func recoverJoin(base Config, addr string, nonce, meta uint64, window time.Duration, deadline time.Time) (*RecoveredWorld, error) {
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("mpinet: recovery: opening mesh listener: %w", err)
	}
	defer ln.Close()

	coord, err := dialRetry(addr, base, deadline, "recovery coordinator")
	if err != nil {
		return nil, err
	}
	localIP := coord.LocalAddr().(*net.TCPAddr).IP
	meshPort := ln.Addr().(*net.TCPAddr).Port
	advertise := net.JoinHostPort(localIP.String(), strconv.Itoa(meshPort))

	h := hello{Nonce: nonce, Rank: base.Rank, Size: base.Size, Addr: advertise, Meta: meta, Digest: base.Digest}
	if err := sendJSONFrame(coord, deadline, frameHello, &h); err != nil {
		coord.Close()
		return nil, fmt.Errorf("mpinet: recovery: registering with the coordinator: %w", err)
	}
	// The coordinator answers only after the membership window seals.
	var w welcome
	if err := readJSONFrame(coord, deadline.Add(window), frameWelcome, &w); err != nil {
		coord.Close()
		if errors.Is(err, errRefused) {
			return nil, fmt.Errorf("mpinet: recovery: %w", err)
		}
		return nil, fmt.Errorf("mpinet: recovery: missed the membership window (the survivors may have re-formed without this rank): %w", err)
	}
	if w.Rank < 1 || w.Rank >= w.Size || len(w.Book) != w.Size {
		coord.Close()
		return nil, fmt.Errorf("mpinet: recovery: malformed world announcement (size %d, rank %d)", w.Size, w.Rank)
	}

	conns := make([]net.Conn, w.Size)
	conns[0] = coord
	if err := meshConnect(conns, ln, w.Rank, nonce, w.Book, base, deadline); err != nil {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	clearDeadlines(conns)
	cfg := base
	cfg.Rank, cfg.Size = w.Rank, w.Size
	return &RecoveredWorld{
		Transport: newTransport(w.Rank, w.Size, nonce, conns, cfg),
		Rank:      w.Rank,
		Size:      w.Size,
		OldRanks:  w.OldRanks,
		Metas:     w.Metas,
	}, nil
}
