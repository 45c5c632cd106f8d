package mpinet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// reserveAddr picks a free loopback rendezvous address.
func reserveAddr(t *testing.T) string {
	t.Helper()
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// makeWorld forms a size-rank TCP world over loopback, one Transport
// per "process" (goroutine here).
func makeWorld(t *testing.T, size int, mut func(cfg *Config)) []*Transport {
	t.Helper()
	addr := reserveAddr(t)
	ts := make([]*Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := Config{
				Rank:              rank,
				Size:              size,
				Addr:              addr,
				Nonce:             0xFEEDFACE,
				RendezvousTimeout: 10 * time.Second,
			}
			if mut != nil {
				mut(&cfg)
			}
			ts[rank], errs[rank] = Connect(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

// collectiveScript runs a fixed sequence of every collective with
// reduction-order-sensitive payloads and returns the observed values.
func collectiveScript(c *mpi.Comm) map[string][]float64 {
	rank := c.Rank()
	vec := func(n int, salt float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			// Non-associativity bait: mixed magnitudes per rank.
			v[i] = math.Sqrt(float64(rank*31+i+2)) * math.Pow(10, float64((rank+i)%7-3)) * salt
		}
		return v
	}
	// A collective's result is valid until the Comm's next collective:
	// keep copies.
	keep := func(v []float64) []float64 { return append([]float64(nil), v...) }
	out := map[string][]float64{}
	c.Barrier(mpi.ClassControl)
	out["bcast"] = keep(c.Bcast(0, vec(5, 1), mpi.ClassModelParams))
	out["allreduce"] = keep(c.Allreduce(vec(7, 1.5), mpi.OpSum, mpi.ClassLikelihoodEval))
	out["allreduce-min"] = keep(c.Allreduce(vec(3, -2), mpi.OpMin, mpi.ClassBranchLength))
	red := keep(c.Reduce(0, vec(4, 0.25), mpi.OpSum, mpi.ClassBranchLength))
	if rank == 0 {
		out["reduce"] = red
	}
	raw := c.BcastBytes(0, []byte(fmt.Sprintf("opcode-from-0")), mpi.ClassControl)
	out["bcastbytes"] = []float64{float64(len(raw))}
	c.Barrier(mpi.ClassControl)
	return out
}

// TestTCPCollectivesMatchInProcess is the load-bearing bit-identity
// check: every collective over loopback TCP must return the exact bits
// the in-process channel transport returns, and rank 0's meter must
// match the in-process shared meter class for class.
func TestTCPCollectivesMatchInProcess(t *testing.T) {
	const size = 4

	// Reference: in-process channel transport.
	world := mpi.NewWorld(size)
	want := make([]map[string][]float64, size)
	world.Run(func(c *mpi.Comm) { want[c.Rank()] = collectiveScript(c) })
	wantMeter := world.Meter().Snapshot()

	// TCP over loopback, one transport per rank.
	ts := makeWorld(t, size, nil)
	got := make([]map[string][]float64, size)
	meters := make([]*mpi.Meter, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		meters[r] = mpi.NewMeter()
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := mpi.NewComm(ts[rank], rank, size, meters[rank])
			got[rank] = collectiveScript(c)
		}(r)
	}
	wg.Wait()

	for r := 0; r < size; r++ {
		for key, wv := range want[r] {
			gv, ok := got[r][key]
			if !ok || len(gv) != len(wv) {
				t.Fatalf("rank %d %s: got %d values, want %d", r, key, len(gv), len(wv))
			}
			for i := range wv {
				if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
					t.Errorf("rank %d %s[%d]: bits %016x != %016x", r, key, i,
						math.Float64bits(gv[i]), math.Float64bits(wv[i]))
				}
			}
		}
	}
	if gotMeter := meters[0].Snapshot(); gotMeter != wantMeter {
		t.Errorf("rank-0 TCP meter differs from in-process meter:\nTCP:\n%v\nin-process:\n%v", gotMeter, wantMeter)
	}
	var zero mpi.Snapshot
	for r := 1; r < size; r++ {
		if s := meters[r].Snapshot(); s != zero {
			t.Errorf("rank %d meter should be empty (all collectives meter at the root), got:\n%v", r, s)
		}
	}
}

func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	ts := makeWorld(t, 2, func(cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.HeartbeatTimeout = 200 * time.Millisecond
	})
	// Rank 1 wedges: alive at the TCP level but no longer heartbeating.
	ts[1].heartbeatsSuspended.Store(true)

	done := make(chan error, 1)
	go func() {
		_, err := ts[0].Recv(1)
		done <- err
	}()
	select {
	case err := <-done:
		var pd *PeerDownError
		if !errors.As(err, &pd) {
			t.Fatalf("want *PeerDownError, got %v", err)
		}
		if pd.Peer != 1 || !strings.Contains(pd.Reason, "heartbeat timeout") {
			t.Fatalf("want heartbeat-timeout failure for peer 1, got %v", pd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent peer never detected")
	}
}

func TestPeerCrashSurfacesAsPeerDown(t *testing.T) {
	ts := makeWorld(t, 3, func(cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.HeartbeatTimeout = time.Second
	})
	// Rank 2 crashes: sockets die without a goodbye.
	for _, p := range ts[2].conns {
		if p != nil {
			p.c.Close()
		}
	}
	for _, rank := range []int{0, 1} {
		_, err := ts[rank].Recv(2)
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Peer != 2 {
			t.Fatalf("rank %d: want *PeerDownError for peer 2, got %v", rank, err)
		}
	}
}

func TestGracefulCloseWhileExpectingTrafficIsPeerDown(t *testing.T) {
	ts := makeWorld(t, 2, nil)
	ts[1].Close()
	_, err := ts[0].Recv(1)
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("want *PeerDownError for peer 1, got %v", err)
	}
}

func TestRendezvousTimesOutWithMissingPeer(t *testing.T) {
	addr := reserveAddr(t)
	start := time.Now()
	_, err := Connect(Config{
		Rank: 0, Size: 2, Addr: addr, Nonce: 1,
		RendezvousTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("rank 0 formed a world without its peer")
	}
	if !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "missing") {
		t.Errorf("error should name the timeout and the missing ranks: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("rendezvous hung for %v instead of honoring the timeout", elapsed)
	}
}

func TestDialFailsAfterBoundedRetries(t *testing.T) {
	addr := reserveAddr(t) // nothing listens here
	start := time.Now()
	_, err := Connect(Config{
		Rank: 1, Size: 2, Addr: addr, Nonce: 1,
		DialTimeout:       100 * time.Millisecond,
		DialRetries:       2,
		RendezvousTimeout: 10 * time.Second,
	})
	if err == nil {
		t.Fatal("dial to a dead rendezvous address succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error should count the bounded attempts: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dial retried for %v instead of giving up", elapsed)
	}
}

func TestNonceMismatchRejectsStaleWorker(t *testing.T) {
	addr := reserveAddr(t)
	var wg sync.WaitGroup
	var rootErr, staleErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, rootErr = Connect(Config{Rank: 0, Size: 2, Addr: addr, Nonce: 111,
			RendezvousTimeout: 1500 * time.Millisecond})
	}()
	go func() {
		defer wg.Done()
		_, staleErr = Connect(Config{Rank: 1, Size: 2, Addr: addr, Nonce: 222,
			RendezvousTimeout: 1500 * time.Millisecond})
	}()
	wg.Wait()
	if rootErr == nil {
		t.Error("rank 0 accepted a worker with the wrong run nonce")
	}
	if staleErr == nil {
		t.Error("the stale worker thought it joined the run")
	}
}

// TestDigestMismatchFailsBothRanks gives the two ranks of a run the same
// nonce but different input digests: rank 0 must refuse the registration
// naming rank 1, and rank 1 must learn why, both well inside the
// rendezvous timeout.
func TestDigestMismatchFailsBothRanks(t *testing.T) {
	addr := reserveAddr(t)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Connect(Config{Rank: rank, Size: 2, Addr: addr, Nonce: 9,
				Digest: uint64(100 + rank), RendezvousTimeout: 10 * time.Second})
			if tr != nil {
				tr.Close()
			}
			errs[rank] = err
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("the ranks took %v to fail, want a refusal inside the rendezvous", elapsed)
	}
	for rank, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "rank 1's inputs differ from rank 0's") {
			t.Errorf("rank %d: got %v, want an error saying rank 1's inputs differ", rank, err)
		}
	}
}

func TestRecoverReformsSurvivorWorld(t *testing.T) {
	addr := reserveAddr(t)
	base := func(rank int) Config {
		return Config{
			Rank: rank, Size: 3, Addr: addr, Nonce: 77,
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  500 * time.Millisecond,
			RecoveryWindow:    700 * time.Millisecond,
			RendezvousTimeout: 10 * time.Second,
		}
	}
	ts := make([]*Transport, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ts[rank], errs[rank] = Connect(base(rank))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Rank 1 dies hard.
	for _, p := range ts[1].conns {
		if p != nil {
			p.c.Close()
		}
	}

	worlds := make([]*RecoveredWorld, 3)
	recErrs := make([]error, 3)
	for _, r := range []int{0, 2} {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ts[rank].Close()
			worlds[rank], recErrs[rank] = Recover(base(rank), 1, uint64(10+rank))
		}(r)
	}
	wg.Wait()
	for _, r := range []int{0, 2} {
		if recErrs[r] != nil {
			t.Fatalf("survivor %d: recover: %v", r, recErrs[r])
		}
		w := worlds[r]
		defer w.Transport.Close()
		if w.Size != 2 {
			t.Fatalf("survivor %d: recovered world size %d, want 2", r, w.Size)
		}
		if len(w.Metas) != 2 || len(w.OldRanks) != 2 {
			t.Fatalf("survivor %d: incomplete membership metadata %v %v", r, w.Metas, w.OldRanks)
		}
	}
	// The two survivors see consistent membership (old ranks 0 and 2,
	// metas 10 and 12, in the same order).
	w0, w2 := worlds[0], worlds[2]
	for i := 0; i < 2; i++ {
		if w0.OldRanks[i] != w2.OldRanks[i] || w0.Metas[i] != w2.Metas[i] {
			t.Fatalf("survivors disagree on membership: %v/%v vs %v/%v",
				w0.OldRanks, w0.Metas, w2.OldRanks, w2.Metas)
		}
	}
	if w0.OldRanks[0]+w0.OldRanks[1] != 2 { // {0,2} in some order
		t.Fatalf("unexpected survivor set %v", w0.OldRanks)
	}
	// The new world moves traffic: a tiny Allreduce across survivors.
	results := make([][]float64, 2)
	for i, w := range []*RecoveredWorld{w0, w2} {
		wg.Add(1)
		go func(i int, w *RecoveredWorld) {
			defer wg.Done()
			c := mpi.NewComm(w.Transport, w.Rank, w.Size, nil)
			results[i] = c.Allreduce([]float64{float64(w.Rank + 1)}, mpi.OpSum, mpi.ClassControl)
		}(i, w)
	}
	wg.Wait()
	for i, res := range results {
		if len(res) != 1 || res[0] != 3 {
			t.Fatalf("survivor %d: allreduce over recovered world = %v, want [3]", i, res)
		}
	}
}

// welcomeCases are welcomes a coordinator might answer rank 1 of a
// two-rank world with, and whether the joiner takes its place in the
// world they describe. TestRendezvousOutcomes sends them, and they seed
// FuzzWelcome.
var welcomeCases = []struct {
	name string
	w    welcome
	ok   bool
}{
	{"well formed", welcome{2, 1, []string{"a", "b"}, []uint64{3, 4}, []int{0, 1}}, true},
	{"metas longer than the world", welcome{2, 1, []string{"a", "b"}, []uint64{3, 4, 9}, []int{0, 1}}, false},
	{"metas missing", welcome{2, 1, []string{"a", "b"}, nil, []int{0, 1}}, false},
	{"old ranks short", welcome{2, 1, []string{"a", "b"}, []uint64{3, 4}, []int{0}}, false},
	{"book short", welcome{2, 1, []string{"a"}, []uint64{3, 4}, []int{0, 1}}, false},
	{"rank 0", welcome{2, 0, []string{"a", "b"}, []uint64{3, 4}, []int{0, 1}}, false},
	{"rank at size", welcome{2, 2, []string{"a", "b"}, []uint64{3, 4}, []int{0, 1}}, false},
}

// TestRendezvousOutcomes drives each way a rendezvous can end besides a
// clean world, at launch (Connect) and in recovery (Recover), and holds
// every side to its outcome. Deadlines are generous and no case times
// anything: a case that cannot end fails at its deadline, not on a slow
// host. Raw registrations (register) stand in for a process where a case
// needs one that says something a real rank would not.
func TestRendezvousOutcomes(t *testing.T) {
	const long = 20 * time.Second
	cfg := func(addr string, rank, size int) Config {
		return Config{Rank: rank, Size: size, Addr: addr, Nonce: 5,
			RendezvousTimeout: long, RecoveryWindow: long}
	}
	// listening waits until addr accepts a connection. A joiner's mesh
	// listener binds an ephemeral port, which can be the one the test
	// just reserved for rank 0: the joiners start once rank 0 holds it.
	// The probe sends nothing, and rank 0 drops it.
	listening := func(t *testing.T, addr string) {
		t.Helper()
		c, err := dialRetry(addr, Config{}, time.Now().Add(long), "rank 0")
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// connect runs Connect for every config, rank 0's ahead of the rest,
	// and returns their errors, closing every transport
	// that formed.
	connect := func(t *testing.T, cfgs ...Config) []error {
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, c := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := Connect(c)
				if tr != nil {
					tr.Close()
				}
				errs[i] = err
			}()
			if c.Rank == 0 {
				listening(t, c.Addr)
			}
		}
		wg.Wait()
		return errs
	}
	// recoverAll runs Recover at epoch 1 for every config at once.
	recoverAll := func(cfgs ...Config) ([]*RecoveredWorld, []error) {
		worlds, errs := make([]*RecoveredWorld, len(cfgs)), make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, c := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worlds[i], errs[i] = Recover(c, 1, uint64(10+c.Rank))
			}()
		}
		wg.Wait()
		t.Cleanup(func() {
			for _, w := range worlds {
				if w != nil {
					w.Transport.Close()
				}
			}
		})
		return worlds, errs
	}
	// epochAddr is the address epoch 1's rendezvous listens on.
	epochAddr := func(addr string) string {
		host, port, _ := net.SplitHostPort(addr)
		p, _ := strconv.Atoi(port)
		return net.JoinHostPort(host, strconv.Itoa(recoveryPort(p, 1)))
	}
	// recoveryAddr reserves a rendezvous address whose epoch-1 port is
	// free as well: another socket may hold that port.
	recoveryAddr := func(t *testing.T) string {
		t.Helper()
		for range 100 {
			addr := reserveAddr(t)
			if ln, err := net.Listen("tcp", epochAddr(addr)); err == nil {
				ln.Close()
				return addr
			}
		}
		t.Fatal("no free pair of loopback ports")
		return ""
	}
	// register dials addr and sends h, as a joiner's registration does.
	register := func(t *testing.T, addr string, h hello) net.Conn {
		t.Helper()
		c, err := dialRetry(addr, Config{}, time.Now().Add(long), "the coordinator")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := sendJSONFrame(c, time.Now().Add(long), frameHello, &h); err != nil {
			t.Fatal(err)
		}
		return c
	}
	wantErr := func(t *testing.T, who string, err error, text string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Errorf("%s: got %v, want an error containing %q", who, err, text)
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"launch peer with another size", func(t *testing.T) {
			addr := reserveAddr(t)
			errs := connect(t, cfg(addr, 0, 2), cfg(addr, 1, 3))
			wantErr(t, "rank 0", errs[0], "mismatched -net-size?")
			if errs[1] == nil {
				t.Error("the peer of another size joined a world")
			}
		}},
		{"launch duplicate rank", func(t *testing.T) {
			addr := reserveAddr(t)
			errs := connect(t, cfg(addr, 0, 3), cfg(addr, 1, 3), cfg(addr, 1, 3))
			wantErr(t, "rank 0", errs[0], "duplicate -net-rank?")
			for i := 1; i < 3; i++ {
				if errs[i] == nil {
					t.Errorf("peer %d claiming rank 1 joined a world", i)
				}
			}
		}},
		{"launch stale nonce turned away", func(t *testing.T) {
			addr := reserveAddr(t)
			root := make(chan error, 1)
			go func() {
				tr, err := Connect(cfg(addr, 0, 2))
				if tr != nil {
					tr.Close()
				}
				root <- err
			}()
			listening(t, addr)
			stale := cfg(addr, 1, 2)
			stale.Nonce++
			if tr, err := Connect(stale); err == nil {
				tr.Close()
				t.Error("a dialer with a stale nonce joined the world")
			}
			if errs := connect(t, cfg(addr, 1, 2)); errs[0] != nil {
				t.Errorf("rank 1 after the stale dialer: %v", errs[0])
			}
			if err := <-root; err != nil {
				t.Errorf("rank 0 with a stale dialer turned away: %v", err)
			}
		}},
		{"recovery digest refused on both sides", func(t *testing.T) {
			addr := recoveryAddr(t)
			a, b := cfg(addr, 0, 2), cfg(addr, 1, 2)
			a.Digest, b.Digest = 1, 2
			_, errs := recoverAll(a, b)
			for i, err := range errs {
				wantErr(t, fmt.Sprintf("survivor %d", i), err, "inputs differ from the recovery coordinator's")
			}
		}},
		{"recovery duplicate old rank skipped", func(t *testing.T) {
			addr := recoveryAddr(t)
			raddr := epochAddr(addr)
			type formed struct {
				w   *RecoveredWorld
				err error
			}
			coord := make(chan formed, 1)
			go func() {
				w, err := Recover(cfg(addr, 0, 3), 1, 10)
				coord <- formed{w, err}
			}()
			h := func(rank int) hello {
				return hello{Nonce: 6, Rank: rank, Size: 3, Addr: "127.0.0.1:1", Meta: uint64(10 + rank)}
			}
			first := register(t, raddr, h(1))
			dup := register(t, raddr, h(1))
			if err := readJSONFrame(dup, time.Now().Add(long), frameWelcome, nil); err == nil {
				t.Fatal("a second registration of old rank 1 was welcomed")
			}
			last := register(t, raddr, h(2))
			for i, c := range []net.Conn{first, last} {
				var w welcome
				if err := readJSONFrame(c, time.Now().Add(long), frameWelcome, &w); err != nil {
					t.Fatalf("member %d: %v", i+1, err)
				}
				if w.Size != 3 || w.Rank != i+1 || fmt.Sprint(w.OldRanks) != "[0 1 2]" || fmt.Sprint(w.Metas) != "[10 11 12]" {
					t.Errorf("member %d welcomed as %+v, want rank %d of 3, old ranks [0 1 2], metas [10 11 12]", i+1, w, i+1)
				}
			}
			f := <-coord
			if f.err != nil {
				t.Fatalf("coordinator: %v", f.err)
			}
			f.w.Transport.Close()
			if f.w.Size != 3 || fmt.Sprint(f.w.OldRanks) != "[0 1 2]" {
				t.Errorf("coordinator sealed size %d, old ranks %v; want 3, [0 1 2]", f.w.Size, f.w.OldRanks)
			}
		}},
		{"recovery replacement from the launch world joins", func(t *testing.T) {
			// A world of four shrank to three; now its rank 2 is lost
			// and a replacement registers as rank 2 of the launch size.
			addr := recoveryAddr(t)
			coord := make(chan *RecoveredWorld, 1)
			go func() {
				w, err := Recover(cfg(addr, 0, 3), 1, 10)
				if err != nil {
					t.Errorf("coordinator: %v", err)
				}
				coord <- w
			}()
			listening(t, epochAddr(addr))
			worlds, errs := recoverAll(cfg(addr, 1, 3), cfg(addr, 2, 4))
			worlds = append([]*RecoveredWorld{<-coord}, worlds...)
			errs = append([]error{nil}, errs...)
			for i, w := range worlds {
				if errs[i] != nil {
					t.Errorf("member %d: %v", i, errs[i])
					continue
				}
				if w == nil {
					continue
				}
				if i == 0 {
					w.Transport.Close()
				}
				if w.Rank != i || w.Size != 3 || fmt.Sprint(w.OldRanks) != "[0 1 2]" {
					t.Errorf("member %d formed rank %d of %d, old ranks %v; want rank %d of 3, [0 1 2]", i, w.Rank, w.Size, w.OldRanks, i)
				}
			}
		}},
		{"recovery survivor after the seal", func(t *testing.T) {
			addr := recoveryAddr(t)
			_, errs := recoverAll(cfg(addr, 0, 2), cfg(addr, 1, 2))
			for i, err := range errs {
				if err != nil {
					t.Fatalf("survivor %d: %v", i, err)
				}
			}
			// The sealed world holds the epoch's port and answers no one:
			// the late survivor waits out its own (short) deadlines.
			late := cfg(addr, 1, 2)
			late.RendezvousTimeout, late.RecoveryWindow = 100*time.Millisecond, 100*time.Millisecond
			_, err := Recover(late, 1, 0)
			wantErr(t, "late survivor", err, "missed the membership window")
		}},
		{"joiner checks the whole welcome", func(t *testing.T) {
			// answer stands in for a coordinator on addr: it answers the
			// first registration with w.
			answer := func(t *testing.T, addr string, w welcome) {
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ln.Close() })
				go func() {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					t.Cleanup(func() { c.Close() })
					if readJSONFrame(c, time.Now().Add(long), frameHello, nil) == nil {
						sendJSONFrame(c, time.Now().Add(long), frameWelcome, &w)
					}
				}()
			}
			for _, tc := range welcomeCases {
				t.Run("recovery "+tc.name, func(t *testing.T) {
					addr := recoveryAddr(t)
					answer(t, epochAddr(addr), tc.w)
					w, err := Recover(cfg(addr, 1, 2), 1, 0)
					if w != nil {
						w.Transport.Close()
					}
					if tc.ok && err != nil {
						t.Errorf("a well-formed welcome was refused: %v", err)
					}
					if !tc.ok {
						wantErr(t, "joiner", err, "malformed world announcement")
					}
				})
				t.Run("launch "+tc.name, func(t *testing.T) {
					addr := reserveAddr(t)
					answer(t, addr, tc.w)
					tr, err := Connect(cfg(addr, 1, 2))
					if tr != nil {
						tr.Close()
					}
					if tc.ok && err != nil {
						t.Errorf("a well-formed welcome was refused: %v", err)
					}
					if !tc.ok {
						wantErr(t, "rank 1", err, "mismatched launch configuration")
					}
				})
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
