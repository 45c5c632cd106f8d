// Package cluster converts metered execution traces (collective-operation
// counts, payload bytes, kernel column-update counts, memory footprints)
// into projected wall-clock times on a cluster of the paper's class — the
// substitution for the 50-node AMD Magny-Cours machine the original
// experiments ran on.
//
// The model is deliberately simple and standard (a LogGP-flavored
// collective model plus a bandwidth-bound compute rate and a swap
// penalty): the reproduction's claims concern *ratios and shapes* (which
// scheme wins, where the crossover lies), which depend on the relative
// comm/compute volumes captured in the trace, not on the constants.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Hardware holds the machine constants used for projection. The defaults
// (see MagnyCours) approximate the paper's test platform: 48-core AMD
// Opteron 6174 nodes on QLogic InfiniBand.
type Hardware struct {
	// LatencySec is the per-message collective latency (α).
	LatencySec float64
	// BandwidthBytesPerSec is the point-to-point bandwidth (β).
	BandwidthBytesPerSec float64
	// ColumnRatePerCore is how many CLV column updates (pattern ×
	// category) one core executes per second; likelihood kernels are
	// memory-bandwidth-bound, so this is an effective, not peak, rate.
	ColumnRatePerCore float64
	// CoresPerNode is the node width (48 on the paper's machine).
	CoresPerNode int
	// RAMPerNodeBytes is the per-node memory capacity.
	RAMPerNodeBytes float64
	// SwapPenalty multiplies compute time when the working set exceeds
	// RAM (the effect behind the paper's super-linear Γ speedups on 1–2
	// nodes).
	SwapPenalty float64
}

// MagnyCours returns constants approximating the paper's cluster (2013-era
// hardware).
func MagnyCours() Hardware {
	return Hardware{
		LatencySec:           3e-6,  // InfiniBand collective hop
		BandwidthBytesPerSec: 2.5e9, // QDR-ish effective bandwidth
		ColumnRatePerCore:    25e6,  // CLV columns/s, memory-bound
		CoresPerNode:         48,
		RAMPerNodeBytes:      128e9,
		SwapPenalty:          2.2,
	}
}

// Trace is everything the projection needs about one run, gathered by the
// engines: the per-class communication snapshot and per-rank compute
// volume at the measurement rank count.
type Trace struct {
	// Comm is the metered collective trace.
	Comm mpi.Snapshot
	// MaxRankColumns is the column-update count of the most loaded rank.
	MaxRankColumns int64
	// TotalColumns is the summed column-update count over all ranks.
	TotalColumns int64
	// MeasuredRanks is the rank count the trace was captured at.
	MeasuredRanks int
	// CLVBytesTotal is the total CLV working set across all ranks.
	CLVBytesTotal float64
}

// Scaled is the trace of the same run on a dataset with computeF times
// its compute volume (patterns × inner vertices) and edgeF times its
// edges: the column counts and the CLV footprint grow with the first,
// every class's collectives and payload bytes with the second (regions
// per sweep ∝ 2n−3).
func (t Trace) Scaled(computeF, edgeF float64) Trace {
	t.TotalColumns = int64(float64(t.TotalColumns) * computeF)
	t.MaxRankColumns = int64(float64(t.MaxRankColumns) * computeF)
	t.CLVBytesTotal *= computeF
	for c := range t.Comm.Ops {
		t.Comm.Ops[c] = int64(float64(t.Comm.Ops[c]) * edgeF)
		t.Comm.Bytes[c] = int64(float64(t.Comm.Bytes[c]) * edgeF)
	}
	return t
}

// Projection is the modeled execution breakdown at a target scale.
type Projection struct {
	// Ranks is the projected rank count.
	Ranks int
	// Nodes is ⌈Ranks/CoresPerNode⌉.
	Nodes int
	// ComputeSec, CommSec, and TotalSec are the modeled times.
	ComputeSec, CommSec, TotalSec float64
	// Swapping reports whether the memory model predicts thrashing.
	Swapping bool
}

// Project models the trace's run at a different rank count. Compute work
// is divided over ranks with the imbalance of the measured assignment
// preserved; each collective costs (α + bytes/β)·⌈log₂ p⌉; the CLV working
// set per node is compared against RAM to decide the swap penalty.
func Project(tr Trace, ranks int, hw Hardware) (Projection, error) {
	if ranks < 1 {
		return Projection{}, fmt.Errorf("cluster: %d ranks", ranks)
	}
	if tr.MeasuredRanks < 1 || tr.TotalColumns < 0 {
		return Projection{}, fmt.Errorf("cluster: invalid trace (%d measured ranks)", tr.MeasuredRanks)
	}
	p := Projection{Ranks: ranks}
	p.Nodes = (ranks + hw.CoresPerNode - 1) / hw.CoresPerNode

	// Compute: preserve the measured imbalance factor while rescaling
	// the per-rank share.
	imbalance := 1.0
	if tr.TotalColumns > 0 && tr.MaxRankColumns > 0 {
		perfect := float64(tr.TotalColumns) / float64(tr.MeasuredRanks)
		if perfect > 0 {
			imbalance = float64(tr.MaxRankColumns) / perfect
			if imbalance < 1 {
				imbalance = 1
			}
		}
	}
	perRank := float64(tr.TotalColumns) / float64(ranks) * imbalance
	p.ComputeSec = perRank / hw.ColumnRatePerCore

	// Memory: CLV set spread over the projected nodes.
	if hw.RAMPerNodeBytes > 0 && tr.CLVBytesTotal/float64(p.Nodes) > hw.RAMPerNodeBytes {
		p.Swapping = true
		p.ComputeSec *= hw.SwapPenalty
	}

	// Communication: per-op latency plus per-byte transfer, each scaled
	// by the binomial tree depth.
	depth := math.Ceil(math.Log2(float64(ranks)))
	if depth < 1 {
		depth = 1
	}
	ops := float64(tr.Comm.TotalOps())
	bytes := float64(tr.Comm.TotalBytes())
	p.CommSec = depth * (ops*hw.LatencySec + bytes/hw.BandwidthBytesPerSec)

	p.TotalSec = p.ComputeSec + p.CommSec
	return p, nil
}

// Speedup returns base.TotalSec / p.TotalSec.
func Speedup(base, p Projection) float64 {
	if p.TotalSec == 0 {
		return math.Inf(1)
	}
	return base.TotalSec / p.TotalSec
}

// memOverheadFactor accounts for the working-set beyond raw CLVs (sum
// tables, scratch buffers, tip data, allocator overhead). The paper's Γ
// runs exceeded 256 GB on one node and 2×256 GB on two nodes for a
// ~240 GB raw-CLV dataset, implying roughly this factor in practice.
const memOverheadFactor = 1.5

// CLVBytes is a run's CLV working set summed over its ranks, the memory
// the swap model weighs: one vector of 4 states × categories doubles per
// pattern and inner vertex, times memOverheadFactor. It depends on the
// dataset alone, not on how the ranks share it.
func CLVBytes(patterns, categories, inner int) float64 {
	return memOverheadFactor * float64(patterns*categories*4*8*inner)
}
