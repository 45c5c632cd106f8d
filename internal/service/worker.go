package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	examl "repro"
)

// RunWorker is the worker-process entry point (`examld -worker -pool
// <addr>`): register with the daemon's pool listener, then execute run
// orders one at a time, each hosting one rank of a job's world. It
// returns when the daemon goes away; a cancel for the job currently
// running exits the process (exit code 2), because a search in flight
// has no safe interruption point — the daemon respawns pool members.
func RunWorker(poolAddr string) error {
	conn, err := net.Dial("tcp", poolAddr)
	if err != nil {
		return fmt.Errorf("service worker: dialing pool %s: %w", poolAddr, err)
	}
	defer conn.Close()
	w := &workerProc{
		enc: json.NewEncoder(conn),
		cur: make(chan string, 1),
	}
	if err := w.send(wireMsg{Type: msgHello, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("service worker: registering: %w", err)
	}

	runs := make(chan wireMsg)
	readErr := make(chan error, 1)
	go func() {
		dec := json.NewDecoder(conn)
		for {
			var m wireMsg
			if err := dec.Decode(&m); err != nil {
				readErr <- err
				close(runs)
				return
			}
			switch m.Type {
			case msgRun:
				runs <- m
			case msgCancel:
				if w.current() == m.Job {
					os.Exit(2)
				}
			case msgProfile:
				// Served off the read loop so a capture (a CPU profile
				// samples for seconds) never blocks run orders, and so a
				// worker mid-job can be profiled live.
				go func(m wireMsg) {
					data, err := captureProfile(m.Profile, m.Seconds)
					rep := wireMsg{Type: msgProfileResult, ProfileID: m.ProfileID, Profile: m.Profile, Data: data}
					if err != nil {
						rep.Error = err.Error()
						rep.Data = nil
					}
					w.send(rep)
				}(m)
			}
		}
	}()

	for m := range runs {
		w.setCurrent(m.Job)
		w.execute(m)
		w.setCurrent("")
	}
	if err := <-readErr; err != nil && !isClosedConn(err) {
		return fmt.Errorf("service worker: pool connection lost: %w", err)
	}
	return nil
}

func isClosedConn(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "use of closed network connection") ||
		strings.Contains(err.Error(), "EOF"))
}

// workerProc is the in-process state of one worker.
type workerProc struct {
	enc    *json.Encoder
	sendMu sync.Mutex

	curMu  sync.Mutex
	curJob string
	cur    chan string
}

func (w *workerProc) send(m wireMsg) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	return w.enc.Encode(&m)
}

func (w *workerProc) setCurrent(job string) {
	w.curMu.Lock()
	w.curJob = job
	w.curMu.Unlock()
}

func (w *workerProc) current() string {
	w.curMu.Lock()
	defer w.curMu.Unlock()
	return w.curJob
}

// execute runs one rank of one job and reports the outcome.
func (w *workerProc) execute(m wireMsg) {
	if m.Spec == nil {
		w.send(wireMsg{Type: msgFailed, Job: m.Job, Error: "run order without a job spec"})
		return
	}
	d, cfg, err := JobInputs(m.Spec)
	if err != nil {
		w.send(wireMsg{Type: msgFailed, Job: m.Job, Error: err.Error()})
		return
	}
	cfg.TraceLabel = m.Job
	if m.Spec.Trace {
		cfg.TraceWriter = &traceForwarder{w: w, job: m.Job}
	}
	dieAfter := m.DieAfter
	cfg.OnProgress = func(iter int, lnL float64) {
		w.send(wireMsg{Type: msgProgress, Job: m.Job, Iteration: iter, LnL: lnL})
		if dieAfter > 0 && iter >= dieAfter {
			// Failure drill: die abruptly, exactly like a crashed host —
			// no goodbye on the rank mesh, no goodbye to the daemon.
			os.Exit(3)
		}
	}

	nc := examl.NetConfig{
		Rank:              m.Rank,
		Size:              m.Size,
		Addr:              m.Addr,
		Nonce:             m.Nonce,
		MaxRecoveries:     m.MaxRecoveries,
		JoinEpoch:         m.JoinEpoch,
		HeartbeatInterval: time.Duration(m.HbIntervalMS) * time.Millisecond,
		HeartbeatTimeout:  time.Duration(m.HbTimeoutMS) * time.Millisecond,
		RecoveryWindow:    time.Duration(m.RecoveryWindowMS) * time.Millisecond,
		OnRecovered: func(rank, size, epoch, resumedIteration int) {
			w.send(wireMsg{
				Type: msgRecovered, Job: m.Job,
				Rank: rank, WorldSize: size, Epoch: epoch, ResumedIteration: resumedIteration,
			})
		},
	}

	nr, err := examl.InferNet(d, cfg, nc)
	if err != nil {
		w.send(wireMsg{Type: msgFailed, Job: m.Job, Error: err.Error()})
		return
	}
	res := nr.Result
	w.send(wireMsg{Type: msgDone, Job: m.Job, Result: &JobResult{
		Tree:             res.Tree,
		LogLikelihood:    res.LogLikelihood,
		LnLBits:          fmt.Sprintf("%016x", math.Float64bits(res.LogLikelihood)),
		Iterations:       res.Iterations,
		WallSeconds:      res.WallSeconds,
		Ranks:            nr.Size,
		Epochs:           nr.Epochs,
		Recovered:        nr.Recovered,
		ResumedIteration: nr.ResumedIteration,
	}})
}

// JobInputs is the one translation of a job spec into the dataset and
// decentralized-scheme Config a run infers with. Every rank rebuilds
// the identical dataset (simulation is seeded; inline data is shared
// verbatim; bootstrap resampling is a pure function of dataset and
// seed), which is what bit-identity requires. cmd/phyrun runs the same
// translation for its local backend and its manifest's inputs digest,
// so a task run by a service worker is bit-identical to the same task
// run in-process.
func JobInputs(spec *JobSpec) (*examl.Dataset, examl.Config, error) {
	cfg := examl.Config{
		Ranks:              spec.Ranks,
		Threads:            spec.Threads,
		Seed:               spec.Seed,
		ParsimonyStartTree: spec.ParsimonyStart,
		MaxIterations:      spec.MaxIterations,
		Epsilon:            spec.Epsilon,
		SPRRadius:          spec.SPRRadius,
	}
	var (
		d   *examl.Dataset
		err error
	)
	if sim := spec.Simulate; sim != nil {
		d, err = examl.Simulate(sim.Taxa, sim.Partitions, sim.GeneLength, sim.Seed)
	} else {
		d, err = examl.LoadPhylip(strings.NewReader(spec.Phylip), spec.Partitions)
	}
	if err != nil {
		return nil, cfg, err
	}
	if bs := spec.Bootstrap; bs != nil {
		if d, err = examl.ResampleDataset(d, bs.Seed); err != nil {
			return nil, cfg, fmt.Errorf("bootstrap resample: %w", err)
		}
	}
	return d, cfg, nil
}

// traceForwarder turns the telemetry collector's JSONL writes into
// trace messages on the control connection. The collector serializes
// writes and emits one full line per call.
type traceForwarder struct {
	w   *workerProc
	job string
}

func (t *traceForwarder) Write(p []byte) (int, error) {
	line := bytes.TrimRight(p, "\n")
	if len(line) > 0 && json.Valid(line) {
		t.w.send(wireMsg{Type: msgTrace, Job: t.job, Line: append(json.RawMessage(nil), line...)})
	}
	return len(p), nil
}
