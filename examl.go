// Package examl is a Go reproduction of ExaML (Exascale Maximum
// Likelihood) from "Novel Parallelization Schemes for Large-Scale
// Likelihood-based Phylogenetic Inference" (Stamatakis & Aberer, 2013).
//
// It provides maximum-likelihood phylogenetic tree inference under
// GTR+Γ / GTR+PSR models on partitioned DNA alignments, parallelized over
// an in-process message-passing runtime with either of the paper's two
// schemes:
//
//   - Decentralized (the paper's contribution): every rank runs a
//     consistent replica of the search and communicates only through two
//     Allreduce call sites.
//   - ForkJoin (the RAxML-Light comparator): a master steers the search
//     and broadcasts traversal descriptors and parameter arrays to
//     workers before every parallel region.
//
// Both engines execute the identical search algorithm, so results agree
// bit-for-bit at equal rank counts; what differs — and what the paper
// measures — is the communication volume, which every run meters and
// reports.
//
// Quick start:
//
//	d, _ := examl.Simulate(16, 4, 500, 42)
//	res, _ := examl.Infer(d, examl.Config{Ranks: 4})
//	fmt.Println(res.LogLikelihood, res.Tree)
package examl

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/forkjoin"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/telemetry"
	"repro/internal/tree"
)

// Scheme selects the parallelization scheme.
type Scheme int

// Available schemes.
const (
	// Decentralized is the ExaML scheme (default).
	Decentralized Scheme = iota
	// ForkJoin is the RAxML-Light comparator scheme.
	ForkJoin
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if s == ForkJoin {
		return "fork-join"
	}
	return "decentralized"
}

// RateModel selects the among-site rate heterogeneity model.
type RateModel int

// Available rate models.
const (
	// GAMMA is the 4-category discrete-Γ model (default).
	GAMMA RateModel = iota
	// PSR is the per-site rate model (4× lower memory).
	PSR
)

// String implements fmt.Stringer.
func (m RateModel) String() string {
	if m == PSR {
		return "PSR"
	}
	return "GAMMA"
}

// SubstitutionModel names the nucleotide substitution model. All are
// special cases of GTR; they differ in which exchangeabilities the
// optimizer may move and how base frequencies are set.
type SubstitutionModel = model.SubstModel

// Available substitution models.
const (
	// GTRModel is the general time-reversible model (default, the
	// paper's setting): 5 free rates, empirical frequencies.
	GTRModel = model.GTR
	// JCModel is Jukes–Cantor: no free rates, uniform frequencies.
	JCModel = model.JC
	// K80Model is Kimura 2-parameter: free κ, uniform frequencies.
	K80Model = model.K80
	// HKYModel is HKY85: free κ, empirical frequencies.
	HKYModel = model.HKY
)

// Dataset is a compressed, partitioned alignment ready for inference.
type Dataset struct {
	d *msa.Dataset
}

// NTaxa returns the number of sequences.
func (d *Dataset) NTaxa() int { return d.d.NTaxa() }

// NPartitions returns the number of partitions.
func (d *Dataset) NPartitions() int { return d.d.NPartitions() }

// Patterns returns the total number of unique site patterns — the
// quantity that governs memory and parallel scalability.
func (d *Dataset) Patterns() int { return d.d.TotalPatterns() }

// Sites returns the total number of alignment columns.
func (d *Dataset) Sites() int { return d.d.TotalSites() }

// TaxonNames returns the taxon labels in dataset order.
func (d *Dataset) TaxonNames() []string { return append([]string(nil), d.d.Names...) }

// Layout reports how a run on the given number of ranks distributes the
// dataset: the most partitions any rank holds and how many partitions
// are split over more than one rank.
func (d *Dataset) Layout(ranks int) (maxPerRank, split int, err error) {
	a, err := enginecore.Assignment(d.d, ranks)
	if err != nil {
		return 0, 0, err
	}
	maxPerRank, split = a.Layout()
	return maxPerRank, split, nil
}

// LoadPhylip reads a relaxed PHYLIP alignment and an optional RAxML-style
// partition scheme ("DNA, gene1 = 1-1000" lines; empty = one partition).
func LoadPhylip(r io.Reader, partitionScheme string) (*Dataset, error) {
	a, err := msa.ParsePhylip(r)
	if err != nil {
		return nil, err
	}
	var parts []msa.Partition
	if strings.TrimSpace(partitionScheme) != "" {
		parts, err = msa.ParsePartitionFile(partitionScheme, a.NSites())
		if err != nil {
			return nil, err
		}
	}
	d, err := msa.Compress(a, parts)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// LoadBinary reads the compact binary alignment format.
func LoadBinary(r io.Reader) (*Dataset, error) {
	d, err := msa.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// SaveBinary writes the dataset in the compact binary alignment format.
func (d *Dataset) SaveBinary(w io.Writer) error { return msa.WriteBinary(w, d.d) }

// Simulate generates a partitioned dataset with the paper's gene recipe:
// nPartitions genes of geneLen sites each over nTaxa taxa, with per-gene
// evolutionary heterogeneity.
func Simulate(nTaxa, nPartitions, geneLen int, seed int64) (*Dataset, error) {
	res, err := seqgen.Generate(seqgen.PartitionedGenes(nTaxa, nPartitions, geneLen, seed))
	if err != nil {
		return nil, err
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// SimulateUnpartitioned generates a single-partition dataset with the
// paper's large-alignment recipe (150 taxa × 20 M bp at full scale).
func SimulateUnpartitioned(nTaxa, nSites int, seed int64) (*Dataset, error) {
	res, err := seqgen.Generate(seqgen.LargeUnpartitioned(nTaxa, nSites, seed))
	if err != nil {
		return nil, err
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// Config controls an inference run. The zero value is a sensible default:
// decentralized scheme, 1 rank, GTR+Γ. The data distribution is not a
// choice: internal/distrib keeps partitions whole on a rank within
// cyclic distribution's per-rank quotas.
type Config struct {
	// Scheme selects the parallelization scheme.
	Scheme Scheme
	// Ranks is the number of simulated MPI ranks (default 1).
	Ranks int
	// Threads is the intra-rank worker count per rank — the
	// shared-memory axis of the paper's §V hybrid MPI/PThreads scheme.
	// ≤ 1 runs every kernel serially. Results are bit-identical at
	// every thread count (docs/DETERMINISM.md).
	Threads int
	// RateModel selects Γ or PSR.
	RateModel RateModel
	// Substitution selects GTR (default) or a constrained sub-model.
	Substitution SubstitutionModel
	// PerPartitionBranchLengths enables the paper's -M option.
	PerPartitionBranchLengths bool
	// Seed drives the random starting tree.
	Seed int64
	// StartTree overrides the random start with a Newick tree.
	StartTree string
	// ParsimonyStartTree builds the starting tree by randomized
	// stepwise-addition parsimony (the Parsimonator recipe) instead of a
	// random topology.
	ParsimonyStartTree bool
	// MaxIterations caps the outer search loop (default 50).
	MaxIterations int
	// Epsilon is the convergence threshold in log-likelihood units
	// (default 0.1).
	Epsilon float64
	// SPRRadius is the rearrangement radius (default 5).
	SPRRadius int
	// SkipTopology restricts the run to model + branch-length
	// optimization on the start tree (like RAxML -f e).
	SkipTopology bool
	// CheckpointPath, when set, writes a restartable checkpoint there
	// after every search iteration.
	CheckpointPath string
	// RestorePath, when set, resumes from a checkpoint file.
	RestorePath string
	// Telemetry enables the out-of-band instrumentation layer: per-rank
	// kernel/collective span timing, derived load-imbalance and
	// comm-fraction metrics, and search-progress counters, returned in
	// Result.Telemetry. Timing is observational only — results stay
	// bit-identical to an uninstrumented run (docs/OBSERVABILITY.md).
	Telemetry bool
	// TraceWriter, when non-nil, additionally streams every recorded
	// span as a JSONL event (implies Telemetry). The writer is shared by
	// all ranks; writes are serialized internally.
	TraceWriter io.Writer
	// TraceLabel, when non-empty, namespaces every JSONL telemetry event
	// of this run with a `"job"` field. The inference service
	// (cmd/examld) sets it to the job ID so concurrent jobs never
	// interleave unattributable events into one stream; one-shot runs
	// leave it empty.
	TraceLabel string
	// OnProgress, when set, is invoked after every completed outer
	// search iteration with the 1-based iteration number and the current
	// log likelihood. Under the in-process transport every rank replica
	// calls it (like the checkpoint hook); in network mode each process
	// calls it exactly once per iteration. Observational only — it must
	// not mutate search state.
	OnProgress func(iteration int, lnL float64)
}

// CommReport is the per-class communication accounting of a run — the
// data behind the paper's Table I.
type CommReport struct {
	// Classes lists per-class statistics, largest byte volume first.
	Classes []CommClassStats
	// TotalOps, TotalBytes, and TotalRegions aggregate all classes.
	TotalOps, TotalBytes, TotalRegions int64
}

// CommClassStats is one class's row.
type CommClassStats struct {
	// Name is the traffic class ("traversal-descriptor", …).
	Name string
	// Ops is the number of collective operations.
	Ops int64
	// Bytes is the payload volume (counted once per logical collective).
	Bytes int64
	// Regions is the number of parallel regions of this class.
	Regions int64
	// ByteShare is Bytes / TotalBytes.
	ByteShare float64
}

func makeCommReport(s mpi.Snapshot) CommReport {
	rep := CommReport{
		TotalOps:     s.TotalOps(),
		TotalBytes:   s.TotalBytes(),
		TotalRegions: s.TotalRegions(),
	}
	for c := mpi.CommClass(0); c < mpi.NumCommClasses; c++ {
		if s.Ops[c] == 0 && s.Bytes[c] == 0 && s.Regions[c] == 0 {
			continue
		}
		share := 0.0
		if rep.TotalBytes > 0 {
			share = float64(s.Bytes[c]) / float64(rep.TotalBytes)
		}
		rep.Classes = append(rep.Classes, CommClassStats{
			Name:      c.String(),
			Ops:       s.Ops[c],
			Bytes:     s.Bytes[c],
			Regions:   s.Regions[c],
			ByteShare: share,
		})
	}
	for i := 1; i < len(rep.Classes); i++ {
		for j := i; j > 0 && rep.Classes[j-1].Bytes < rep.Classes[j].Bytes; j-- {
			rep.Classes[j-1], rep.Classes[j] = rep.Classes[j], rep.Classes[j-1]
		}
	}
	return rep
}

// Result is the outcome of an inference.
type Result struct {
	// Tree is the final topology in Newick format.
	Tree string
	// LogLikelihood is the final score.
	LogLikelihood float64
	// PerPartitionLogLikelihood is the per-partition breakdown.
	PerPartitionLogLikelihood []float64
	// Iterations is the number of outer search iterations executed.
	Iterations int
	// Comm is the communication accounting.
	Comm CommReport
	// WallSeconds is the measured wall-clock time.
	WallSeconds float64
	// Ranks echoes the rank count.
	Ranks int
	// Telemetry is the end-of-run instrumentation report; nil unless
	// Config.Telemetry (or Config.TraceWriter) was set.
	Telemetry *telemetry.Report

	trace cluster.Trace
}

// Projection is a modeled execution time at cluster scale.
type Projection struct {
	// Ranks and Nodes are the projected scale.
	Ranks, Nodes int
	// Seconds is the modeled total time.
	Seconds float64
	// ComputeSeconds and CommSeconds are the breakdown.
	ComputeSeconds, CommSeconds float64
	// Swapping reports predicted memory thrashing.
	Swapping bool
}

// Project models this run's execution time at the given rank count on the
// paper's cluster (48-core nodes, InfiniBand) — the substitution for the
// original 50-node testbed.
func (r *Result) Project(ranks int) (Projection, error) {
	p, err := cluster.Project(r.trace, ranks, cluster.MagnyCours())
	if err != nil {
		return Projection{}, err
	}
	return Projection{
		Ranks:          p.Ranks,
		Nodes:          p.Nodes,
		Seconds:        p.TotalSec,
		ComputeSeconds: p.ComputeSec,
		CommSeconds:    p.CommSec,
		Swapping:       p.Swapping,
	}, nil
}

// searchConfig translates the public Config into the internal search
// configuration, wiring checkpoint restore and per-iteration writes. The
// writer is nil when the run writes no checkpoints.
func searchConfig(cfg Config) (search.Config, *checkpointWriter, error) {
	het := model.Gamma
	if cfg.RateModel == PSR {
		het = model.PSR
	}
	scfg := search.Config{
		Het:                  het,
		Subst:                cfg.Substitution,
		PerPartitionBranches: cfg.PerPartitionBranchLengths,
		Epsilon:              cfg.Epsilon,
		SPRRadius:            cfg.SPRRadius,
		MaxIterations:        cfg.MaxIterations,
		Seed:                 cfg.Seed,
		StartTree:            cfg.StartTree,
		ParsimonyStart:       cfg.ParsimonyStartTree,
		SkipTopology:         cfg.SkipTopology,
	}
	if cfg.RestorePath != "" {
		f, err := os.Open(cfg.RestorePath)
		if err != nil {
			return scfg, nil, fmt.Errorf("examl: open checkpoint: %w", err)
		}
		state, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			return scfg, nil, err
		}
		scfg.Restore = state
	}
	var ckpt *checkpointWriter
	if cfg.CheckpointPath != "" {
		ckpt = &checkpointWriter{path: cfg.CheckpointPath}
		if err := ckpt.probe(); err != nil {
			return scfg, nil, err
		}
		scfg.OnIteration = func(s *search.Searcher, iter int, lnL float64) {
			ckpt.write(iter, s.Snapshot)
		}
	}
	if cfg.OnProgress != nil {
		prev := scfg.OnIteration
		scfg.OnIteration = func(s *search.Searcher, iter int, lnL float64) {
			if prev != nil {
				prev(s, iter, lnL)
			}
			cfg.OnProgress(iter, lnL)
		}
	}
	return scfg, ckpt, nil
}

// runConfig is the one translation of the public Config into a run
// configuration; Infer, InferNet and InferWithFailures all go through
// it, and ask the checkpoint writer it returns whether the run's
// checkpoints were written. recorders is how many ranks a requested
// telemetry collector describes: cfg.Ranks in process, one per process
// in network mode.
func runConfig(cfg Config, recorders int) (enginecore.RunConfig, *checkpointWriter, error) {
	scfg, ckpt, err := searchConfig(cfg)
	if err != nil {
		return enginecore.RunConfig{}, nil, err
	}
	rc := enginecore.RunConfig{
		Search:  scfg,
		Ranks:   cfg.Ranks,
		Threads: cfg.Threads,
	}
	if cfg.Telemetry || cfg.TraceWriter != nil {
		rc.Telemetry = telemetry.NewCollector(recorders, mpi.ClassNames(), cfg.TraceWriter)
		rc.Telemetry.SetJob(cfg.TraceLabel)
	}
	return rc, ckpt, nil
}

// newResult assembles the public Result of a run from what the driver
// returned for it.
func newResult(res *search.Result, stats *enginecore.RunStats, rc enginecore.RunConfig) *Result {
	rep := stats.TelemetryReport(rc.Telemetry, rc.Threads)
	if rep != nil {
		// Mirror the run summary onto the process metrics registry so a
		// live /metrics scrape (-metrics-addr, or the examld daemon) sees
		// it.
		rep.Publish(metrics.Default())
	}
	return &Result{
		Tree:                      res.Tree.Newick(),
		LogLikelihood:             res.LnL,
		PerPartitionLogLikelihood: res.PerPartitionLnL,
		Iterations:                res.Iterations,
		Comm:                      makeCommReport(stats.Comm),
		WallSeconds:               stats.Wall.Seconds(),
		Ranks:                     stats.MeasuredRanks,
		Telemetry:                 rep,
		trace:                     stats.Trace,
	}
}

// Infer runs a maximum-likelihood tree search on cfg.Ranks in-process
// ranks.
func Infer(d *Dataset, cfg Config) (*Result, error) {
	var run func(*msa.Dataset, enginecore.RunConfig) (*search.Result, *enginecore.RunStats, error)
	switch cfg.Scheme {
	case Decentralized:
		run = decentral.Run
	case ForkJoin:
		run = forkjoin.Run
	default:
		return nil, fmt.Errorf("examl: unknown scheme %d", cfg.Scheme)
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	rc, ckpt, err := runConfig(cfg, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	res, stats, err := run(d.d, rc)
	if err != nil {
		return nil, err
	}
	if err := ckpt.failure(); err != nil {
		return nil, err
	}
	return newResult(res, stats, rc), nil
}

// checkpointWriter writes one run's per-iteration checkpoints and keeps
// the first failure: the search's iteration hook has no way to return it,
// so the run's entry point asks for it once the search is over.
type checkpointWriter struct {
	path string
	mu   sync.Mutex
	last int // the newest iteration written
	err  error
}

// probe creates and removes the temp file a write would create, so a
// path that cannot be written fails the job before the search starts.
func (w *checkpointWriter) probe() error {
	tmp := w.path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		f.Close()
		err = os.Remove(tmp)
	}
	if err != nil {
		return fmt.Errorf("examl: checkpoint %s: %w", w.path, err)
	}
	return nil
}

// write is the iteration hook. Every replica of an in-process world
// calls it with identical state, so only the first call of a newer
// iteration takes the snapshot and writes it; writes are serialized and
// stop at the first failure.
func (w *checkpointWriter) write(iter int, snapshot func(iter int) *checkpoint.State) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || iter <= w.last {
		return
	}
	w.last = iter
	if err := writeCheckpoint(w.path, snapshot(iter)); err != nil {
		w.err = fmt.Errorf("examl: checkpoint %s: %w", w.path, err)
	}
}

// writeCheckpoint writes atomically via a temp file + rename.
func writeCheckpoint(path string, state *checkpoint.State) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = checkpoint.Write(f, state)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the write's own error is the one reported
	}
	return err
}

// failure returns the first write that failed, nil when all succeeded or
// the run (a nil writer) wrote no checkpoints.
func (w *checkpointWriter) failure() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// RobinsonFoulds computes the Robinson–Foulds distance between two Newick
// trees over the same taxa — the standard topology-comparison metric.
func RobinsonFoulds(newickA, newickB string) (int, error) {
	a, err := tree.ParseNewick(newickA, 1)
	if err != nil {
		return 0, err
	}
	b, err := tree.ParseNewick(newickB, 1)
	if err != nil {
		return 0, err
	}
	return tree.RobinsonFoulds(a, b)
}
