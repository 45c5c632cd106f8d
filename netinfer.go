package examl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/forkjoin"
	"repro/internal/mpi"
	"repro/internal/mpinet"
)

// NetConfig places one OS process in a multi-process world connected
// over TCP (internal/mpinet). Every process of a run must use the same
// Size, Addr, and Nonce; Rank must be unique. Config.Ranks is ignored
// in network mode — the world size is Size.
type NetConfig struct {
	// Rank is this process's rank, 0 ≤ Rank < Size. Rank 0 listens on
	// Addr; all others dial it.
	Rank int
	// Size is the world size (number of processes).
	Size int
	// Addr is the rendezvous address (host:port of rank 0).
	Addr string
	// Nonce identifies the run: the rendezvous rejects processes
	// carrying a different nonce, so a stale worker from a previous
	// launch cannot join.
	Nonce uint64
	// MaxRecoveries is the survivor-recovery budget for the
	// decentralized scheme: how many times the world may re-form after
	// peer failures before giving up. 0 means a lost peer fails the run.
	// Fork-join runs ignore it (a lost process is fatal there — the
	// asymmetry the paper calls out).
	MaxRecoveries int
	// HeartbeatInterval and HeartbeatTimeout tune failure detection;
	// zero values use the mpinet defaults.
	HeartbeatInterval, HeartbeatTimeout time.Duration
	// RecoveryWindow bounds how long the recovery coordinator waits for
	// survivors (and replacements) to re-register before sealing the new
	// world; zero uses the mpinet default (2 × HeartbeatTimeout).
	RecoveryWindow time.Duration
	// JoinEpoch, when > 0, makes this process a replacement worker: it
	// skips the initial rendezvous and joins the world directly at
	// recovery epoch JoinEpoch, claiming Rank (the dead process's rank).
	// The service daemon uses this to migrate a job onto a warm spare at
	// the original world size, which keeps the final result bit-identical
	// to an undisturbed run (a shrunken world would change the summation
	// order). Decentralized scheme only.
	JoinEpoch int
	// OnRecovered, when set, is invoked after every successful recovery
	// with the rank and world size this process holds in the new epoch
	// and the iteration the search resumed from. Observational only.
	OnRecovered func(rank, size, epoch, resumedIteration int)
}

// NetResult is the per-process outcome of a network run.
type NetResult struct {
	// Result is the inference outcome. Under the decentralized scheme it
	// is present — and bit-identical, including the communication
	// accounting — on every rank; under fork-join it is nil on worker
	// ranks (only the master holds the tree).
	Result *Result
	// Rank and Size are this process's position in the world that
	// completed the run (they differ from NetConfig after a recovery).
	Rank, Size int
	// Epochs is the number of worlds this process participated in
	// (1 = no failure).
	Epochs int
	// Recovered reports whether the run resumed from a replica
	// checkpoint after losing peers.
	Recovered bool
	// ResumedIteration is the iteration the recovery resumed from.
	ResumedIteration int
}

// InferNet runs this process's rank of a multi-process inference over
// TCP. It is the network-transport counterpart of Infer: the same
// search, the same deterministic collectives, the same Table-I
// accounting — but each rank is an OS process, launched by
// `examl -net-launch` or by hand with matching -net-* flags.
//
// Under the decentralized scheme, peer failures detected by the mpinet
// heartbeats trigger survivor recovery (up to nc.MaxRecoveries): the
// world re-forms on the recovery port, the newest replica checkpoint is
// broadcast, and the search resumes on the reduced world.
func InferNet(d *Dataset, cfg Config, nc NetConfig) (*NetResult, error) {
	if nc.Size < 1 {
		return nil, fmt.Errorf("examl: net world size %d", nc.Size)
	}
	if nc.Rank < 0 || nc.Rank >= nc.Size {
		return nil, fmt.Errorf("examl: net rank %d outside world of %d", nc.Rank, nc.Size)
	}
	if nc.Addr == "" {
		return nil, fmt.Errorf("examl: net mode needs a rendezvous address")
	}
	// One recorder: a collector describes this process alone.
	rc, ckpt, err := runConfig(cfg, 1)
	if err != nil {
		return nil, err
	}
	netCfg := mpinet.Config{
		Rank:              nc.Rank,
		Size:              nc.Size,
		Addr:              nc.Addr,
		Nonce:             nc.Nonce,
		Digest:            inputDigest(d, cfg),
		HeartbeatInterval: nc.HeartbeatInterval,
		HeartbeatTimeout:  nc.HeartbeatTimeout,
		RecoveryWindow:    nc.RecoveryWindow,
	}

	switch cfg.Scheme {
	case Decentralized:
		res, stats, report, err := fault.RunNet(d.d, fault.NetPlan{
			Net:           netCfg,
			Run:           rc,
			MaxRecoveries: nc.MaxRecoveries,
			JoinEpoch:     nc.JoinEpoch,
			OnRecovered:   nc.OnRecovered,
		})
		if err != nil {
			return nil, err
		}
		if err := ckpt.failure(); err != nil {
			return nil, err
		}
		return &NetResult{
			Result:           newResult(res, stats, rc),
			Rank:             report.FinalRank,
			Size:             report.FinalSize,
			Epochs:           report.Epochs,
			Recovered:        report.Recovered,
			ResumedIteration: report.ResumedIteration,
		}, nil

	case ForkJoin:
		if nc.JoinEpoch > 0 {
			return nil, fmt.Errorf("examl: replacement joins (JoinEpoch) require the decentralized scheme")
		}
		tr, err := mpinet.Connect(netCfg)
		if err != nil {
			return nil, err
		}
		comm := mpi.NewComm(tr, nc.Rank, nc.Size, mpi.NewMeter())
		defer comm.Close()
		res, stats, err := forkjoin.RunOnComm(comm, d.d, rc)
		if err != nil {
			return nil, err
		}
		if err := ckpt.failure(); err != nil {
			return nil, err
		}
		out := &NetResult{Rank: nc.Rank, Size: nc.Size, Epochs: 1}
		if res != nil {
			out.Result = newResult(res, stats, rc)
		}
		return out, nil

	default:
		return nil, fmt.Errorf("examl: unknown scheme %d", cfg.Scheme)
	}
}

// inputDigest hashes everything the ranks of one run must share: per
// partition the pattern count, weights and tip states, and the Config
// fields that decide the search. Threads, telemetry and checkpoint
// paths are left out; they move no bit. FNV-1a is the same function in
// every process, so equal inputs give equal digests.
func inputDigest(d *Dataset, cfg Config) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	for _, p := range d.d.Parts {
		put(uint64(len(p.Weights)), uint64(len(p.Tips)))
		for _, w := range p.Weights {
			put(uint64(w))
		}
		for _, tips := range p.Tips {
			for _, st := range tips {
				buf = append(buf, byte(st))
			}
		}
		h.Write(buf)
		buf = buf[:0]
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(cfg.Scheme), uint64(cfg.RateModel), uint64(cfg.Substitution),
		flag(cfg.PerPartitionBranchLengths), uint64(cfg.Distribution), uint64(cfg.Seed),
		flag(cfg.ParsimonyStartTree), uint64(cfg.MaxIterations), math.Float64bits(cfg.Epsilon),
		uint64(cfg.SPRRadius), flag(cfg.SkipTopology), uint64(len(cfg.StartTree)))
	buf = append(buf, cfg.StartTree...)
	h.Write(buf)
	return h.Sum64()
}
