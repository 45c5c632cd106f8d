package enginecore_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/decentral"
	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/forkjoin"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/telemetry"
	"repro/internal/tree"
)

func runDataset(t *testing.T) *msa.Dataset {
	t.Helper()
	gen, err := seqgen.Generate(seqgen.PartitionedGenes(8, 2, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(gen.Alignment, gen.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type rankOut struct {
	res   *search.Result
	stats *enginecore.RunStats
	err   error
}

// onEveryRank runs f as every rank of a world over the named transport
// — "chan": an in-process mpi.World, "tcp": one mpinet loopback endpoint
// per rank — and returns what each rank's f returned. Ranks that have
// not all returned within the timeout fail the test: the epilogue exists
// so that no failure leaves a rank waiting.
func onEveryRank(t *testing.T, transport string, size int, f func(c *mpi.Comm) rankOut) []rankOut {
	t.Helper()
	outs := make([]rankOut, size)
	done := make(chan int, size)
	var world *mpi.World
	var addr string
	if transport == "chan" {
		world = mpi.NewWorld(size)
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr = ln.Addr().String()
		ln.Close()
	}
	for r := 0; r < size; r++ {
		go func(r int) {
			defer func() { done <- r }()
			if world != nil {
				outs[r] = f(world.Comm(r))
				return
			}
			tr, err := mpinet.Connect(mpinet.Config{Rank: r, Size: size, Addr: addr, Nonce: 77})
			if err != nil {
				outs[r].err = err
				return
			}
			c := mpi.NewComm(tr, r, size, mpi.NewMeter())
			defer c.Close()
			outs[r] = f(c)
		}(r)
	}
	timeout := time.After(30 * time.Second)
	for n := 0; n < size; n++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatalf("%s world of %d: %d ranks still running after 30 s", transport, size, size-n)
		}
	}
	return outs
}

// bodyOf is a rank body that skips the engine and the search: rank r
// returns what result(r) gives it, and 10·(r+1) kernel columns.
func bodyOf(result func(rank int) (*search.Result, error)) enginecore.RankBody {
	return func(c *mpi.Comm, _ *msa.Dataset, _ *distrib.Assignment, _ enginecore.Config, _ search.Config) (*search.Result, telemetry.RankCounters, error) {
		res, err := result(c.Rank())
		return res, telemetry.RankCounters{telemetry.RankColumns: int64(10 * (c.Rank() + 1))}, err
	}
}

// TestEpilogueOnEveryRank drives the one epilogue through the rank-body
// seam on both transports: a replica whose result is not rank 0's — by
// one lnL bit, or by its tree — is a "replica divergence" error on EVERY
// rank (§III-B), a failure the master carried in step is an error on
// every rank rather than a hang, and ranks that agree (or hold no
// result, like fork-join workers) return identical stats: each rank's
// columns summed and their maximum, the dataset's CLV footprint and rank
// 0's meter as it stood before the epilogue, whose three collectives
// (the failure flag, the reference result, the one sum) come after it.
func TestEpilogueOnEveryRank(t *testing.T) {
	d := runDataset(t)
	resultOf := func(treeSeed int64, lnL float64) *search.Result {
		return &search.Result{Tree: tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(treeSeed))), LnL: lnL}
	}
	const lnL = -1234.5678
	errBoom := errors.New("boom")
	clvBytes := cluster.CLVBytes(d.TotalPatterns(), model.GammaCategories, d.NTaxa()-2)

	cases := []struct {
		name    string
		result  func(rank int) (*search.Result, error)
		wantErr string // substring of every rank's error; "" = no error
	}{
		{"replicas agree", func(int) (*search.Result, error) { return resultOf(1, lnL), nil }, ""},
		{"only rank 0 holds a result", func(rank int) (*search.Result, error) {
			if rank != 0 {
				return nil, nil
			}
			return resultOf(1, lnL), nil
		}, ""},
		{"rank 1 off by one lnL bit", func(rank int) (*search.Result, error) {
			if rank == 1 {
				return resultOf(1, math.Float64frombits(math.Float64bits(lnL)^1)), nil
			}
			return resultOf(1, lnL), nil
		}, "replica divergence"},
		{"rank 1 holds another tree", func(rank int) (*search.Result, error) {
			if rank == 1 {
				return resultOf(2, lnL), nil
			}
			return resultOf(1, lnL), nil
		}, "replica divergence"},
		{"rank 0 failed in step", func(rank int) (*search.Result, error) {
			if rank == 0 {
				return nil, enginecore.InStep(errBoom)
			}
			return nil, nil
		}, "enginecore: rank"},
	}
	worlds := []struct {
		transport string
		size      int
	}{{"chan", 3}, {"tcp", 2}}

	for _, w := range worlds {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s%d/%s", w.transport, w.size, tc.name), func(t *testing.T) {
				var epilogueOps int64
				outs := onEveryRank(t, w.transport, w.size, func(c *mpi.Comm) rankOut {
					res, stats, err := enginecore.RunOnComm(c, d, enginecore.RunConfig{}, bodyOf(tc.result))
					if c.Rank() == 0 && err == nil {
						epilogueOps = c.Meter().Snapshot().TotalOps() - stats.Comm.TotalOps()
					}
					return rankOut{res, stats, err}
				})
				for r, o := range outs {
					if tc.wantErr == "" {
						if o.err != nil {
							t.Fatalf("rank %d: %v", r, o.err)
						}
						want := enginecore.RunStats{
							Trace: cluster.Trace{
								Comm:           outs[0].stats.Comm,
								MaxRankColumns: int64(10 * w.size),
								TotalColumns:   int64(10 * w.size * (w.size + 1) / 2),
								MeasuredRanks:  w.size,
								CLVBytesTotal:  clvBytes,
							},
							Wall: o.stats.Wall,
						}
						if *o.stats != want {
							t.Errorf("rank %d: stats %+v, want %+v", r, *o.stats, want)
						}
						continue
					}
					if o.err == nil || !strings.Contains(o.err.Error(), tc.wantErr) {
						t.Errorf("rank %d: error %v, want one containing %q", r, o.err, tc.wantErr)
					}
					if o.res != nil || o.stats != nil {
						t.Errorf("rank %d: a failed run returned a result or stats", r)
					}
				}
				if tc.wantErr == "" && epilogueOps != 3 {
					t.Errorf("the epilogue ran %d collectives after the freeze, want 3", epilogueOps)
				}
				if tc.name == "rank 0 failed in step" && !errors.Is(outs[0].err, errBoom) {
					t.Errorf("rank 0: error %v does not wrap the body's", outs[0].err)
				}
			})
		}
	}
}

// TestInProcessRunIsTheDriverOnEveryRank: Run is RunOnComm on every
// communicator of a channel world, so the stats Run returns — the
// Table-I accounting above all — are the stats every rank of such a
// world returns, in both schemes. (Each scheme's
// TestRunOnCommMatchesInProcess holds the same against a TCP world.)
func TestInProcessRunIsTheDriverOnEveryRank(t *testing.T) {
	d := runDataset(t)
	const ranks = 3
	cfg := enginecore.RunConfig{
		Search: search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 1},
		Ranks:  ranks,
	}
	schemes := []struct {
		name      string
		run       func(*msa.Dataset, enginecore.RunConfig) (*search.Result, *enginecore.RunStats, error)
		runOnComm func(*mpi.Comm, *msa.Dataset, enginecore.RunConfig) (*search.Result, *enginecore.RunStats, error)
	}{
		{"decentral", decentral.Run, decentral.RunOnComm},
		{"forkjoin", forkjoin.Run, forkjoin.RunOnComm},
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			ref, refStats, err := s.run(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			outs := onEveryRank(t, "chan", ranks, func(c *mpi.Comm) rankOut {
				res, stats, err := s.runOnComm(c, d, cfg)
				return rankOut{res, stats, err}
			})
			for r, o := range outs {
				if o.err != nil {
					t.Fatalf("rank %d: %v", r, o.err)
				}
				if o.stats.Comm != refStats.Comm {
					t.Errorf("rank %d: metered traffic differs from Run's:\n%v\nRun:\n%v", r, o.stats.Comm, refStats.Comm)
				}
				if o.stats.Trace != refStats.Trace || o.stats.MeasuredRanks != ranks {
					t.Errorf("rank %d: stats %+v differ from Run's %+v", r, o.stats, refStats)
				}
				if o.res != nil && (math.Float64bits(o.res.LnL) != math.Float64bits(ref.LnL) || o.res.Tree.Newick() != ref.Tree.Newick()) {
					t.Errorf("rank %d: result differs from Run's", r)
				}
			}
			if outs[0].res == nil {
				t.Error("rank 0 returned no result")
			}
		})
	}
}

// stubPeer is rank 0's transport in a two-rank world whose rank 1 is a
// script: every Recv returns msg, every Send is dropped.
type stubPeer struct{ msg mpi.Message }

func (s stubPeer) Send(int, mpi.Message) error   { return nil }
func (s stubPeer) Recv(int) (mpi.Message, error) { return s.msg, nil }
func (s stubPeer) Close() error                  { return nil }

// TestPeerProtocolMismatchIsAnError: a live peer that breaks the
// collective protocol — a message out of collective order, or a
// reduction operand of another length (two processes given different
// partition files) — fails the rank with an error naming the peer and
// the mismatch, not the process with a panic. The error is a
// *mpi.CommError wrapping *mpi.ProtocolError and never a
// *mpinet.PeerDownError, so fault.RunNet fails the rank instead of
// re-forming the world without the peer.
func TestPeerProtocolMismatchIsAnError(t *testing.T) {
	d := runDataset(t)
	// The body's first collective is a 32-value Allreduce: its Reduce
	// leg is rank 0's collective number 1 and receives from rank 1.
	body := func(c *mpi.Comm, _ *msa.Dataset, _ *distrib.Assignment, _ enginecore.Config, _ search.Config) (*search.Result, telemetry.RankCounters, error) {
		c.Allreduce(make([]float64, 32), mpi.OpSum, mpi.ClassLikelihoodEval)
		return nil, telemetry.RankCounters{}, nil
	}
	cases := []struct {
		name string
		msg  mpi.Message
		want string
	}{
		{"wrong sequence number", mpi.Message{Seq: 7, F64: make([]float64, 32)}, "sequence number 7, want 1"},
		{"wrong operand length", mpi.Message{Seq: 1, F64: []float64{1}}, "reduce operand of 1 values, want 32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mpi.NewComm(stubPeer{tc.msg}, 0, 2, mpi.NewMeter())
			res, stats, err := enginecore.RunOnComm(c, d, enginecore.RunConfig{}, body)
			if err == nil || res != nil || stats != nil {
				t.Fatalf("RunOnComm = (%v, %v, %v), want only an error", res, stats, err)
			}
			var ce *mpi.CommError
			var pe *mpi.ProtocolError
			if !errors.As(err, &ce) || ce.Peer != 1 || !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *mpi.CommError with rank 1 wrapping *mpi.ProtocolError", err)
			}
			if pd := new(mpinet.PeerDownError); errors.As(err, &pd) {
				t.Fatalf("error %v passes for a lost peer", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "rank 1") || !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not name rank 1 and %q", msg, tc.want)
			}
		})
	}
}
