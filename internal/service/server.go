package service

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Options configures a Server.
type Options struct {
	// PoolAddr is the TCP address the worker-registration listener
	// binds (default "127.0.0.1:0").
	PoolAddr string
	// Workers is the warm-pool size the server maintains by spawning
	// worker processes itself; 0 means workers are managed externally
	// (operators run `examld -worker -pool <addr>` by hand).
	Workers int
	// WorkerArgv is the command the server spawns one pool worker with;
	// the pool address is appended as the final argument. Required when
	// Workers > 0.
	WorkerArgv []string
	// WorkerEnv is appended to the inherited environment of spawned
	// workers.
	WorkerEnv []string
	// HeartbeatInterval, HeartbeatTimeout, and RecoveryWindow tune
	// failure detection for every job's rank mesh; zero takes the
	// default. The defaults (DefaultHeartbeatInterval,
	// DefaultHeartbeatTimeout, and twice the timeout) favor fast
	// migration on a LAN; raise them on lossy links.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	RecoveryWindow    time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// The heartbeat defaults Options takes for a zero value.
const (
	DefaultHeartbeatInterval = 100 * time.Millisecond
	DefaultHeartbeatTimeout  = 2 * time.Second
)

func (o *Options) fill() {
	if o.PoolAddr == "" {
		o.PoolAddr = "127.0.0.1:0"
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if o.RecoveryWindow <= 0 {
		o.RecoveryWindow = 2 * o.HeartbeatTimeout
	}
}

// Server is the daemon: pool manager, job store, scheduler, and HTTP
// API rolled into one. Create with New, serve Handler() over HTTP,
// Close when done.
type Server struct {
	opts Options
	ln   net.Listener

	mu         sync.Mutex
	closed     bool
	jobs       map[string]*job
	order      []string // submission order, for the list endpoint
	queue      []string // queued job IDs, FIFO
	workers    map[string]*worker
	nextJob    int
	nextWorker int
	nonce      uint64
	spawned    map[*exec.Cmd]bool

	// profileWaiters holds the reply channels of in-flight worker
	// profile captures, keyed by capture ID (guarded by mu).
	profileWaiters map[uint64]chan profileReply
	nextProfileID  uint64

	metrics *serverMetrics

	wg sync.WaitGroup
}

// New starts the pool listener (and the spawn maintainer, when
// Options.Workers > 0) and returns the server.
func New(opts Options) (*Server, error) {
	opts.fill()
	if opts.Workers > 0 && len(opts.WorkerArgv) == 0 {
		return nil, fmt.Errorf("service: Workers > 0 needs WorkerArgv")
	}
	ln, err := net.Listen("tcp", opts.PoolAddr)
	if err != nil {
		return nil, fmt.Errorf("service: pool listener: %w", err)
	}
	s := &Server{
		opts:           opts,
		ln:             ln,
		jobs:           map[string]*job{},
		workers:        map[string]*worker{},
		nonce:          uint64(time.Now().UnixNano())<<16 | uint64(os.Getpid())&0xffff,
		spawned:        map[*exec.Cmd]bool{},
		profileWaiters: map[uint64]chan profileReply{},
	}
	s.metrics = newServerMetrics(s)
	s.wg.Add(1)
	go s.acceptLoop()
	s.mu.Lock()
	s.maintainLocked()
	s.mu.Unlock()
	return s, nil
}

// PoolAddr returns the address workers register at.
func (s *Server) PoolAddr() string { return s.ln.Addr().String() }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// maintainLocked tops the spawned-worker set up to Options.Workers.
func (s *Server) maintainLocked() {
	if s.closed {
		return
	}
	for len(s.spawned) < s.opts.Workers {
		argv := append(append([]string(nil), s.opts.WorkerArgv...), s.PoolAddr())
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(), s.opts.WorkerEnv...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			s.logf("service: spawning worker: %v", err)
			return
		}
		s.spawned[cmd] = true
		s.wg.Add(1)
		go func(cmd *exec.Cmd) {
			defer s.wg.Done()
			cmd.Wait()
			s.mu.Lock()
			delete(s.spawned, cmd)
			s.maintainLocked()
			s.mu.Unlock()
		}(cmd)
	}
}

// WaitWorkers blocks until n workers are registered or the timeout
// elapses. The pool is elastic — jobs submitted earlier simply queue —
// but tests and the smoke drill want a known starting strength.
func (s *Server) WaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		got := len(s.workers)
		s.mu.Unlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: %d of %d workers registered after %v", got, n, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close stops the listener, disconnects every worker, and kills the
// processes this server spawned. Queued jobs stay queued forever;
// running jobs are not awaited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.ln.Close()
	for _, w := range s.workers {
		w.conn.Close()
	}
	for cmd := range s.spawned {
		cmd.Process.Kill()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
