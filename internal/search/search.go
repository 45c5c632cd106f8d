package search

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/numutil"
	"repro/internal/parsimony"
	"repro/internal/telemetry"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// Config controls the search.
type Config struct {
	// Het selects Γ or PSR rate heterogeneity.
	Het model.Heterogeneity
	// Subst constrains the GTR exchangeabilities to a named sub-model
	// (JC, K80, HKY); the zero value is full GTR, the paper's setting.
	Subst model.SubstModel
	// PerPartitionBranches enables individual per-partition branch
	// lengths (the paper's -M option).
	PerPartitionBranches bool
	// Epsilon is the log-likelihood improvement threshold below which the
	// search stops (RAxML default 0.1).
	Epsilon float64
	// SPRRadius is the lazy-SPR rearrangement radius (default 5).
	SPRRadius int
	// MaxIterations caps the outer search loop (default 50).
	MaxIterations int
	// Seed drives the starting topology.
	Seed int64
	// StartTree, when non-empty, is a Newick starting tree overriding the
	// random start.
	StartTree string
	// ParsimonyStart builds the starting tree by randomized
	// stepwise-addition parsimony with SPR refinement (the Parsimonator
	// recipe production ExaML runs use) instead of a random topology.
	// Ignored when StartTree or Restore is set.
	ParsimonyStart bool
	// SkipTopology disables SPR moves (branch lengths + model only).
	SkipTopology bool
	// Restore resumes from a checkpoint: the tree, parameters, and
	// iteration counter are taken from the state instead of a fresh
	// start. PSR per-site rates are re-derived in the first iteration.
	Restore *checkpoint.State
	// OnIteration, when set, is invoked after every completed outer
	// iteration with the searcher, the 1-based iteration number (counting
	// restored iterations), and the current log likelihood — the hook
	// checkpointing and progress reporting attach to. It runs on every
	// replica under the de-centralized scheme; callers that write files
	// must restrict themselves to one rank.
	OnIteration func(s *Searcher, iteration int, lnL float64)
}

// The search's fixed effort per iteration.
const (
	// newtonIterations caps the Newton steps of one branch visit or one
	// smoothing sweep.
	newtonIterations = 8
	// modelOptRounds is the number of α/GTR (or PSR-rate) optimization
	// rounds per iteration.
	modelOptRounds = 1
	// smoothPasses is the number of branch-length smoothing sweeps per
	// iteration.
	smoothPasses = 2
)

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.SPRRadius <= 0 {
		c.SPRRadius = 5
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 50
	}
	return c
}

// Result is the outcome of a search.
type Result struct {
	// Tree is the final topology with optimized branch lengths.
	Tree *tree.Tree
	// LnL is the final total log likelihood.
	LnL float64
	// PerPartitionLnL is the final per-partition breakdown.
	PerPartitionLnL []float64
	// Iterations is the number of outer search iterations executed until
	// convergence (the paper's 23-vs-17 observation is about this count).
	Iterations int
	// Shared is the final per-partition (α + GTR) parameter matrix.
	Shared [][]float64
}

// Searcher drives the search over an Engine. In the de-centralized scheme
// one Searcher runs per rank (consistent replicas); in the fork-join
// scheme a single Searcher runs on the master.
type Searcher struct {
	Tree *tree.Tree
	eng  Engine
	cfg  Config

	nPart int
	// shared is the authoritative per-partition (α + GTR rates) matrix,
	// row-major with model.SharedLen doubles per partition; sharedRows are
	// the row headers into it that SetShared receives. The searcher keeps
	// only these free parameters: the derived state (eigensystems, Γ
	// category rates) lives in the engines' kernels, the one place that
	// reads it. While optimizeSharedScalar searches a scalar, its columns
	// mirror what the engine was last told instead; they hold the accepted
	// values again when it returns.
	shared         []float64
	sharedRows     [][]float64
	lnL            float64
	perPart        []float64
	startIteration int

	// Incremental-traversal state (docs/PERFORMANCE.md). dirty[slot] marks
	// an inner CLV whose stored bytes may differ from what a forced full
	// traversal would produce; full-tree evaluations refresh exactly the
	// dirty and misoriented slots (traversal.BuildReuse), which leaves
	// every evaluation the bits of a forced full traversal.
	dirty []bool
	// modelDirty forces the next full-tree evaluation after any model
	// parameter or site-rate change invalidated every CLV.
	modelDirty bool
	// touched records the CLV slots written between beginTouch/endTouch —
	// the slots an SPR prune point's verification wrote for the regrafted
	// tree, which become dirty when the move is rejected (the restored
	// topology invalidates them) and before the verification's exact
	// evaluation.
	touched  []bool
	touching bool

	// The buffers below are reused from call to call, which keeps the
	// steady-state optimization loops allocation-free (docs/PERFORMANCE.md;
	// asserted by alloc tests). An engine result slice is only valid until
	// the engine's next call (enginecore.Local), so one that must survive
	// it is copied into searcher-owned storage.
	//
	// Model-parameter search state (optimizeModel): one Brent search per
	// partition, the probed columns, and the forced full-tree descriptor
	// every probe of one round executes — built once per round, because
	// the tree is fixed for the round, and re-stamped per probe with the
	// mask of the partitions whose candidate changed.
	optSearch []scalarSearch
	optCols   []int
	optMask   []bool
	probeDesc traversal.Descriptor

	// Descriptor state: the full-tree descriptor buildFull rebuilds and
	// the edge descriptor updateBranch rebuilds, reused call to call.
	fullDesc, edgeDesc traversal.Descriptor

	// Newton-loop state (newton): per-(class, branch) brackets, done
	// flags and convergence mask, per-branch change flags, and the Reuse
	// plan of every iteration after a plan's first; updateBranch's
	// one-edge plan and its one half-node; the smoother's plan, its
	// half-nodes and its half-node-ID → plan-edge-index map for the
	// staleness walk.
	gradLo, gradHi                []float64
	gradDone, gradChanged         []bool
	gradActive                    []bool
	gradEmptyPre                  [][]likelihood.Step
	gradReuse, edgePlan, gradPlan traversal.GradPlan
	edgeNode                      [1]*tree.Node
	gradNodes                     []*tree.Node
	gradEdgeIdx                   []int32

	// SPR prune-point state (tryPrunePoint): the prune record, the
	// candidate edges, their insertion plan, and the attachment-branch
	// lengths a verification saves — reused, so a prune point that
	// verifies nothing allocates nothing.
	pruned      tree.PrunedSubtree
	sprCands    []*tree.Node
	insPlan     traversal.InsertPlan
	savedAttach []float64
	// insertionHook, when set, sees every prune point's candidates and
	// their scores while the subtree is still pruned (the oracle tests).
	insertionHook func(ps *tree.PrunedSubtree, cands []*tree.Node, scores []float64)

	// counts are the search's per-rank counters (Counters), out-of-band:
	// nothing the search computes reads them.
	counts telemetry.RankCounters
}

// Counters returns the search's per-rank counters: its iterations,
// model-parameter probes, Newton steps, SPR activity and the CLV and
// pre-order steps its evaluations scheduled and skipped
// (docs/OBSERVABILITY.md).
func (s *Searcher) Counters() telemetry.RankCounters { return s.counts }

// grow returns *buf resized to n, reallocating only on growth. Contents
// are unspecified; callers overwrite every element.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// growBool is grow for flag buffers.
func growBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	return (*buf)[:n]
}

// NewSearcher builds the search state: the starting tree (deterministic
// from cfg.Seed or parsed from cfg.StartTree) and default parameters. The
// taxa and empirical frequencies come from the dataset; every replica
// constructs identical state.
func NewSearcher(eng Engine, d *msa.Dataset, cfg Config) (*Searcher, error) {
	cfg = cfg.withDefaults()
	classes := 1
	if cfg.PerPartitionBranches {
		classes = d.NPartitions()
	}
	var tr *tree.Tree
	var err error
	if cfg.Restore != nil {
		tr, err = cfg.Restore.BuildTree()
		if err != nil {
			return nil, fmt.Errorf("search: restore: %w", err)
		}
		if tr.BLClasses != classes {
			return nil, fmt.Errorf("search: checkpoint has %d branch classes, config needs %d", tr.BLClasses, classes)
		}
		if len(tr.Taxa) != len(d.Names) {
			return nil, fmt.Errorf("search: checkpoint has %d taxa, dataset %d", len(tr.Taxa), len(d.Names))
		}
		for i := range tr.Taxa {
			if tr.Taxa[i] != d.Names[i] {
				return nil, fmt.Errorf("search: checkpoint taxon %q != dataset %q", tr.Taxa[i], d.Names[i])
			}
		}
	} else if cfg.StartTree != "" {
		tr, err = tree.ParseNewick(cfg.StartTree, classes)
		if err != nil {
			return nil, fmt.Errorf("search: start tree: %w", err)
		}
		if len(tr.Taxa) != len(d.Names) {
			return nil, fmt.Errorf("search: start tree has %d taxa, dataset %d", len(tr.Taxa), len(d.Names))
		}
		for i := range tr.Taxa {
			if tr.Taxa[i] != d.Names[i] {
				return nil, fmt.Errorf("search: start tree taxon %q != dataset %q", tr.Taxa[i], d.Names[i])
			}
		}
	} else if cfg.ParsimonyStart {
		tr, _, err = parsimony.Build(d, classes, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("search: parsimony start: %w", err)
		}
		tr.SetAllLengths(tree.DefaultBranchLength)
	} else {
		tr = tree.NewRandom(d.Names, classes, rand.New(rand.NewSource(cfg.Seed)))
	}
	s := &Searcher{Tree: tr, eng: eng, cfg: cfg, nPart: d.NPartitions()}
	s.dirty = make([]bool, tr.NInner())
	s.modelDirty = true // fresh kernels hold no CLVs; first evaluation must be full
	if cfg.Restore != nil {
		if len(cfg.Restore.Shared) != s.nPart {
			return nil, fmt.Errorf("search: checkpoint has %d partitions, dataset %d", len(cfg.Restore.Shared), s.nPart)
		}
		s.startIteration = cfg.Restore.Iteration
	}
	s.shared = make([]float64, 0, s.nPart*model.SharedLen)
	for pi := 0; pi < s.nPart; pi++ {
		// A full Params validates the partition's frequencies and any
		// restored row once; only its free parameters are kept.
		par, err := model.NewParams(cfg.Het, cfg.Subst.InitialFreqs(d.Parts[pi].Freqs), 0)
		if err != nil {
			return nil, err
		}
		if cfg.Restore != nil {
			if err := par.DecodeShared(cfg.Restore.Shared[pi]); err != nil {
				return nil, fmt.Errorf("search: restore partition %d: %w", pi, err)
			}
		}
		s.shared = par.AppendShared(s.shared)
	}
	s.sharedRows = make([][]float64, s.nPart)
	for pi := range s.sharedRows {
		s.sharedRows[pi] = s.shared[pi*model.SharedLen : (pi+1)*model.SharedLen : (pi+1)*model.SharedLen]
	}
	return s, nil
}

// Snapshot captures the current replicated search state for
// checkpointing. iteration is the number of completed outer iterations.
func (s *Searcher) Snapshot(iteration int) *checkpoint.State {
	return &checkpoint.State{
		Iteration: iteration,
		LnL:       s.lnL,
		Taxa:      append([]string(nil), s.Tree.Taxa...),
		BLClasses: s.Tree.BLClasses,
		Edges:     checkpoint.FromTree(s.Tree),
		Shared:    s.sharedMatrix(),
	}
}

// sharedMatrix returns a copy of the authoritative parameter matrix for
// callers that keep it (checkpoints, the final result).
func (s *Searcher) sharedMatrix() [][]float64 {
	out := make([][]float64, s.nPart)
	for i, row := range s.sharedRows {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// pushShared ships the current parameters to the engine, which copies
// them before returning. Every push may change quantities all CLVs
// depend on, so the next full-tree evaluation must rebuild them.
func (s *Searcher) pushShared() {
	s.eng.SetShared(s.sharedRows)
	s.modelDirty = true
}

// evaluateFull performs a full-tree traversal + evaluation at the edge
// next to taxon 0 and refreshes the cached likelihoods. "Full" describes
// the resulting CLV state, not the work: unless the model changed,
// buildFull schedules only the dirty and misoriented slots.
func (s *Searcher) evaluateFull() float64 {
	return s.evaluateFullAt(s.Tree.Tip(0))
}

// evaluateFullAt evaluates at the given edge, leaving every CLV
// byte-identical to a forced full traversal there.
func (s *Searcher) evaluateFullAt(p *tree.Node) float64 {
	d := s.buildFull(p)
	out := s.eng.Evaluate(d)
	s.perPart = grow(&s.perPart, len(out))
	copy(s.perPart, out)
	s.lnL = sum(s.perPart)
	return s.lnL
}

// buildFull returns a descriptor whose execution leaves the engine's CLV
// arrays byte-identical to Build(p, force=true): forced when a model
// change invalidated everything, otherwise the dirty-overlay descriptor
// that recomputes only dirty and misoriented slots (and clears the flags
// it refreshes). The descriptor is s.fullDesc, rebuilt by the next call.
func (s *Searcher) buildFull(p *tree.Node) *traversal.Descriptor {
	var d *traversal.Descriptor
	if s.modelDirty {
		d = s.fullDesc.Build(s.Tree, p, true)
		s.modelDirty = false
		for i := range s.dirty {
			s.dirty[i] = false
		}
	} else {
		d = s.fullDesc.BuildReuse(s.Tree, p, s.dirty)
	}
	s.noteSteps(d)
	scheduled := int64(len(d.Steps[0]))
	s.counts[telemetry.RankTraversalSteps] += scheduled
	s.counts[telemetry.RankTraversalStepsSkipped] += int64(s.Tree.NInner()) - scheduled
	return d
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// Run executes the full search and returns the result.
func (s *Searcher) Run() (*Result, error) {
	s.pushShared()
	best := s.evaluateFull()

	iterations := s.startIteration
	for iterations < s.cfg.MaxIterations {
		iterations++
		s.counts[telemetry.RankIterations]++

		for r := 0; r < modelOptRounds; r++ {
			s.counts[telemetry.RankModelOptRounds]++
			if err := s.optimizeModel(); err != nil {
				return nil, err
			}
		}
		s.smoothAll(smoothPasses)
		cur := s.evaluateFull()

		if !s.cfg.SkipTopology {
			var err error
			if cur, err = s.sprRound(s.cfg.SPRRadius); err != nil {
				return nil, err
			}
		}

		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(s, iterations, cur)
		}
		if cur < best+s.cfg.Epsilon {
			best = math.Max(best, cur)
			break
		}
		best = cur
	}
	// Final polish: one more smoothing sweep and an exact evaluation.
	s.smoothAll(1)
	final := s.evaluateFull()
	return &Result{
		Tree:            s.Tree,
		LnL:             final,
		PerPartitionLnL: append([]float64(nil), s.perPart...),
		Iterations:      iterations,
		Shared:          s.sharedMatrix(),
	}, nil
}

// Close shuts the engine down.
func (s *Searcher) Close() { s.eng.Close() }

// ---------- branch-length optimization ----------

// updateBranch Newton-optimizes the branch at p, its linkage classes in
// lockstep: the descriptor rooted on the edge refreshes the CLVs at both
// ends, then the edge's one-edge gradient plan runs the Newton loop of a
// smoothing sweep (newton) — one parallel region carrying 2·classes
// doubles per iteration, the coordinated-proposal pattern the paper
// requires for partitioned analyses.
func (s *Searcher) updateBranch(p *tree.Node) {
	d := s.edgeDesc.Build(s.Tree, p, false)
	s.noteSteps(d)
	s.eng.Traverse(d)
	s.edgePlan.SetEdge(d)
	s.edgeNode[0] = p
	s.newton(&s.edgePlan, s.edgeNode[:])
}

func clampBL(t float64) float64 {
	if t < tree.MinBranchLength {
		return tree.MinBranchLength
	}
	if t > tree.MaxBranchLength {
		return tree.MaxBranchLength
	}
	return t
}

// quantizeBL rounds an optimized branch length to 26 significant bits
// (relative grid ~1.5e-8, inside the Newton convergence tolerance).
// Newton iterates carry the low-bit noise of whatever association order
// the engine's reduction used — which legitimately differs between the
// schemes under joint branch lengths and across rank counts
// (DETERMINISM.md "What is not bit-stable") — and writing those bits
// into the tree would let sub-tolerance noise accumulate into the CLVs
// and eventually flip a knife-edge search decision. Snapping every
// write to a fixed grid collapses all sub-tolerance disagreement to
// the same stored double, so trajectories that agree to within the
// optimizer's own tolerance agree bitwise. The mantissa round carries
// into the exponent correctly for IEEE-754 (a power-of-two boundary
// just moves to the next binade).
func quantizeBL(t float64) float64 {
	const drop = 52 - 26
	b := math.Float64bits(t)
	b = (b + 1<<(drop-1)) &^ (1<<drop - 1)
	return math.Float64frombits(b)
}

// smoothAll runs full branch-length smoothing sweeps over the tree using
// the simultaneous multi-branch Newton smoother: each sweep freezes the
// CLV state once (one post-order refresh + one pre-order pass) and then
// Newton-optimizes EVERY branch against it at once, one engine call per
// Newton iteration — so a sweep costs O(newtonIterations) parallel
// regions instead of the O(branches · newtonIterations) a branch-by-
// branch updateBranch pass would pay (docs/PERFORMANCE.md).
//
// Branches that exhaust a sweep's Newton budget keep their truncated
// (bracket-clamped) value, as a branch updateBranch optimizes does, and
// smoothAll schedules extra sweeps (bounded) until every branch
// converges against its own sweep's frozen state. Writing
// only converged fixed points is what keeps the search trajectory
// robust to the low-bit reduction-order differences between engines
// and rank counts: Newton contracts them away, so they never reach a
// topology or model-bracket decision (DETERMINISM.md).
func (s *Searcher) smoothAll(passes int) {
	const extraSweeps = 8
	for i := 0; i < passes+extraSweeps; i++ {
		converged := s.smoothSweep()
		if i >= passes-1 && converged {
			return
		}
	}
}

// smoothSweep is one simultaneous smoothing sweep: it refreshes the
// CLVs, builds the gradient plan of every edge and runs the Newton loop
// against that frozen state (newton). The return reports whether every
// (branch, class) converged within the Newton budget; smoothAll keeps
// sweeping (bounded) while any branch was truncated at the cap.
func (s *Searcher) smoothSweep() bool {
	s.counts[telemetry.RankGradientSweeps]++

	// Refresh the post-order CLVs (dirty-overlay reuse), rooted at
	// tip 0 — the orientation BuildGradient assumes.
	d := s.buildFull(s.Tree.Tip(0))
	s.eng.Traverse(d)

	// Every outer vector is recomputed. One of the previous sweep's is
	// still valid only when every edge that sweep moved lies below its
	// vertex, and a sweep moves edges all over the tree.
	s.gradNodes = s.gradPlan.Build(s.Tree, nil, s.gradNodes)
	plan, nodes := &s.gradPlan, s.gradNodes
	s.counts[telemetry.RankPreorderSteps] += int64(len(plan.Pre[0]))
	converged, changed := s.newton(plan, nodes)

	// Propagate the sweep's changed edges into the dirty overlay:
	// post-order CLVs above a changed edge become dirty.
	if cap(s.gradEdgeIdx) < len(s.Tree.HalfNodes) {
		s.gradEdgeIdx = make([]int32, len(s.Tree.HalfNodes))
	}
	s.gradEdgeIdx = s.gradEdgeIdx[:len(s.Tree.HalfNodes)]
	for i := range s.gradEdgeIdx {
		s.gradEdgeIdx[i] = -1
	}
	for b, nd := range nodes {
		s.gradEdgeIdx[nd.ID] = int32(b)
	}
	s.markGradStale(changed)
	return converged
}

// newton is the one Newton loop of every branch length, a sweep's edges
// and a verified insertion's alike. plan is a contracting gradient plan
// whose CLV state — and outer vectors, if it has pre-order steps — is
// frozen for the loop, nodes[b] its edge b's half-node. Branch b's
// class-c Newton state lives at index c·nB+b, its trial length at
// plan.T[c][b]. The first iteration runs plan itself; derivatives at new
// trial lengths then only need the sum tables it contracted, so every
// later iteration runs the same edges as a Reuse plan with no pre-order
// step, narrowed by its Active mask to the (edge, class) slots still
// moving. Skipping a slot cannot perturb another slot's bits — the slots
// are independent sums — and each slot iterates the sequence it would
// alone. The optimized lengths are written back after the loop,
// quantized and clamped, whether or not they converged; newton reports
// whether every slot converged and which edges' stored lengths moved
// (valid until the next call).
func (s *Searcher) newton(plan *traversal.GradPlan, nodes []*tree.Node) (converged bool, changed []bool) {
	classes, nB := len(plan.T), plan.NBranches()
	lo := grow(&s.gradLo, classes*nB)
	hi := grow(&s.gradHi, classes*nB)
	done := growBool(&s.gradDone, classes*nB)
	active := growBool(&s.gradActive, classes*nB)
	for i := range done {
		lo[i] = tree.MinBranchLength
		hi[i] = tree.MaxBranchLength
		done[i] = false
	}
	if cap(s.gradEmptyPre) < classes {
		s.gradEmptyPre = make([][]likelihood.Step, classes)
	}
	s.gradReuse = traversal.GradPlan{Pre: s.gradEmptyPre[:classes], Edges: plan.Edges, T: plan.T, Active: active, Reuse: true}
	skipped := 0
	for iter := 0; iter < newtonIterations; iter++ {
		s.counts[telemetry.RankNewtonIters]++
		p := plan
		if iter > 0 {
			p = &s.gradReuse
			s.counts[telemetry.RankPreorderStepsSkipped] += int64(nB - 1)
			s.counts[telemetry.RankGradientSlotsSkipped] += int64(skipped)
		}
		vec := s.eng.AllBranchDerivatives(p)
		allDone := true
		for c := 0; c < classes; c++ {
			for b := 0; b < nB; b++ {
				i := c*nB + b
				if done[i] {
					continue
				}
				t := plan.T[c][b]
				next := newtonStep(vec[i], vec[classes*nB+i], t, &lo[i], &hi[i])
				if math.Abs(next-t) < 1e-8 {
					done[i] = true
				} else {
					allDone = false
				}
				plan.T[c][b] = next
			}
		}
		if allDone {
			break
		}
		skipped = 0
		for i := range active {
			active[i] = !done[i]
			if done[i] {
				skipped++
			}
		}
	}

	changed = growBool(&s.gradChanged, nB)
	for b, nd := range nodes {
		changed[b] = false
		for c := 0; c < classes; c++ {
			next := clampBL(quantizeBL(plan.T[c][b]))
			if math.Float64bits(next) != math.Float64bits(nd.Length(c)) {
				changed[b] = true
			}
			nd.SetLength(c, next)
		}
	}
	converged = true
	for _, d := range done {
		converged = converged && d
	}
	return converged, changed
}

// newtonStep applies one Newton/bisection step: maintain the bracket on the sign of d1, take the Newton step where the
// curvature is usable, bisect otherwise or when the step leaves the
// bracket.
func newtonStep(d1, d2, t float64, lo, hi *float64) float64 {
	if d1 > 0 {
		*lo = t
	} else {
		*hi = t
	}
	var next float64
	if d2 < 0 {
		next = t - d1/d2
	} else {
		next = 0.5 * (*lo + *hi)
	}
	if !(next > *lo && next < *hi) || math.IsNaN(next) {
		next = 0.5 * (*lo + *hi)
	}
	return next
}

// markGradStale propagates one smoothing sweep's changed edges into the
// dirty overlay: s.dirty[v] for every post-order CLV whose subtree gained
// a changed edge.
func (s *Searcher) markGradStale(changed []bool) {
	n := s.Tree.NTaxa()
	rb := s.Tree.Tip(0).Back
	// walk returns the number of changed edges in {u's edge} ∪ the
	// subtree hanging below u.Back.
	var walk func(u *tree.Node) int
	walk = func(u *tree.Node) int {
		child := u.Back
		f := 0
		if !child.IsTip() {
			f = walk(child.Next) + walk(child.Next.Next)
			if f > 0 {
				s.dirty[child.VertexID-n] = true
			}
		}
		if b := s.gradEdgeIdx[child.ID]; b >= 0 && changed[b] {
			f++
		}
		return f
	}
	if walk(rb.Next)+walk(rb.Next.Next) > 0 {
		s.dirty[rb.VertexID-n] = true
	}
}

// ---------- model parameter optimization ----------

// The model-parameter search: constants, not knobs (docs/PERFORMANCE.md §9).
const (
	// scalarXTol is Brent's relative x tolerance.
	scalarXTol = 1e-3
	// scalarFlatLnL is the observed likelihood change below which a
	// parabolic probe counts as flat; two in a row stop a partition.
	scalarFlatLnL = 1e-3
	// scalarMaxProbes bounds the SetShared→Evaluate pairs one scalar may
	// cost: each partition's search gets one fewer, the last one settles.
	scalarMaxProbes = 14
)

// scalarSearch is one partition's search over one scalar parameter:
// Brent's method maximizing that partition's log likelihood from the
// current value, whose likelihood the caller already holds. It stops on
// Brent's own x tolerance, on flatness — two consecutive parabolic probes
// that each changed the partition's likelihood by less than scalarFlatLnL
// (observed changes: a parabola through a wide bracket predicts "flat"
// where the surface is not) — or when the probe budget is spent. A
// partition's sequence of probes depends on nothing but its own objective:
// running the searches of many partitions in lockstep changes what a probe
// costs, never what any of them finds.
type scalarSearch struct {
	br     numutil.BrentStepper
	probes int
	flat   int
	done   bool
}

func (q *scalarSearch) start(lo, hi, x, lnL float64) {
	*q = scalarSearch{}
	q.br.Start(lo, hi, x, -lnL, scalarXTol)
}

// next returns the value to probe next; false ends the search for good.
func (q *scalarSearch) next() (float64, bool) {
	if !q.done && q.flat < 2 && q.probes < scalarMaxProbes-1 {
		if u, ok := q.br.Next(); ok {
			return u, true
		}
	}
	q.done = true
	return 0, false
}

// report takes the partition's log likelihood at the value next returned.
func (q *scalarSearch) report(lnL float64) {
	_, before := q.br.Best()
	q.br.Report(-lnL)
	q.probes++
	if q.br.Parabolic() && math.Abs(-lnL-before) < scalarFlatLnL {
		q.flat++
	} else {
		q.flat = 0
	}
}

// best returns the best value probed (the starting value when nothing
// beat it) and the log likelihood held for it.
func (q *scalarSearch) best() (x, lnL float64) {
	x, f := q.br.Best()
	return x, -f
}

// optimizeModel optimizes the rate-heterogeneity parameters and the GTR
// exchangeabilities of all partitions simultaneously (coordinated
// proposals: one parallel region evaluates one candidate for every
// partition still searching, the design the paper's reference [23]
// mandates for partitioned parallel efficiency).
//
// A round pays one opening evaluation. Every scalar after that starts
// from per-partition likelihoods the round already holds: partition i's
// slot of Evaluate is a pure function of partition i's parameters and the
// tree, which is fixed here (docs/DETERMINISM.md §4), so the values one
// scalar ends with are the values the next one starts from.
func (s *Searcher) optimizeModel() error {
	groups := s.cfg.Subst.FreeRateGroups()
	if s.cfg.Het != model.Gamma {
		scales := s.eng.OptimizeSiteRates(s.probeDesc.Build(s.Tree, s.Tree.Tip(0), true))
		for c, f := range scales {
			if f > 0 && f != 1 {
				for _, e := range s.Tree.Edges() {
					e.SetLength(c, clampBL(e.Length(c)*f))
				}
			}
		}
		// New per-site rates plus globally rescaled branch lengths
		// invalidate every CLV.
		s.modelDirty = true
		if len(groups) == 0 {
			return nil
		}
	}
	s.evaluateFull()
	s.probeDesc.Build(s.Tree, s.Tree.Tip(0), true)
	if s.cfg.Het == model.Gamma {
		s.optCols = append(s.optCols[:0], model.SharedAlpha)
		if err := s.optimizeSharedScalar(s.optCols, model.MinAlpha, model.MaxAlpha); err != nil {
			return err
		}
	}
	// Exchangeabilities: one free rate group at a time (5 singletons for
	// GTR, a single tied transition group for K80/HKY, none for JC), all
	// partitions in lockstep.
	for _, group := range groups {
		s.optCols = s.optCols[:0]
		for _, ri := range group {
			s.optCols = append(s.optCols, model.SharedRates+ri)
		}
		if err := s.optimizeSharedScalar(s.optCols, model.MinRate, model.MaxRate); err != nil {
			return err
		}
	}
	return nil
}

// optimizeSharedScalar runs one Brent search per partition, in lockstep,
// over one scalar parameter; cols are the columns of the shared matrix the
// scalar occupies (one, or a tied rate group). It starts from s.perPart,
// the likelihoods held for the current values, and leaves there the
// likelihoods held for the accepted ones.
//
// Each step is one probe — one SetShared, one forced traversal and one
// evaluation region — over only the partitions whose value changes: those
// still searching, at their next candidate, and those that stopped on a
// candidate other than their best, back at their best. While the scalar is
// being searched the shared matrix mirrors what the engine was last told,
// so a partition that takes no part in a probe is pushed the value its
// CLVs were computed from (a no-op in the kernel), skipped by the
// descriptor's mask, and costs nothing. The loop ends when no value is
// left to change: every partition's parameters and CLVs are then those of
// its accepted value, exactly as a push and a forced full evaluation of
// the accepted matrix would leave them — without that evaluation when the
// last probes already were at the accepted values.
func (s *Searcher) optimizeSharedScalar(cols []int, lo, hi float64) error {
	if cap(s.optSearch) < s.nPart {
		s.optSearch = make([]scalarSearch, s.nPart)
	}
	qs := s.optSearch[:s.nPart]
	mask := growBool(&s.optMask, s.nPart)
	for i, row := range s.sharedRows {
		// Local bracket around the current value, clipped to bounds.
		cur := row[cols[0]]
		qs[i].start(math.Max(lo, cur*0.2), math.Min(hi, math.Max(cur*5, cur+1)), cur, s.perPart[i])
	}
	for {
		n := 0
		for i, row := range s.sharedRows {
			q := &qs[i]
			x, searching := q.next()
			if !searching {
				x, _ = q.best()
			}
			mask[i] = searching || math.Float64bits(x) != math.Float64bits(row[cols[0]])
			if mask[i] {
				n++
				for _, c := range cols {
					row[c] = x
				}
			}
		}
		if n == 0 {
			break
		}
		out, err := s.probeShared(cols, mask, n)
		if err != nil {
			// Leave the matrix at the best values found, none of them the
			// candidate that failed; the engine holds something else.
			for i, row := range s.sharedRows {
				x, _ := qs[i].best()
				for _, c := range cols {
					row[c] = x
				}
			}
			s.modelDirty = true
			return err
		}
		for i := range qs {
			if !qs[i].done {
				qs[i].report(out[i])
			}
		}
	}
	for i := range qs {
		_, s.perPart[i] = qs[i].best()
	}
	s.lnL = sum(s.perPart)
	return nil
}

// probeShared pushes the shared matrix, whose columns cols carry this
// probe's candidates, and evaluates the partitions mask marks (n of them)
// by a forced full traversal: one SetShared broadcast + one evaluation
// region. The result is the engine's own slice, valid until
// its next call, and only the marked slots mean anything. A marked
// partition whose likelihood comes back NaN — an engine that could not
// evaluate the candidate — fails the search: NaN compares false against
// everything, so Brent's bracket update would otherwise walk on silently
// in an arbitrary direction.
func (s *Searcher) probeShared(cols []int, mask []bool, n int) ([]float64, error) {
	s.counts[telemetry.RankModelProbes]++
	s.counts[telemetry.RankModelPartitionEvals] += int64(n)
	s.eng.SetShared(s.sharedRows)
	s.probeDesc.Active = mask
	out := s.eng.Evaluate(&s.probeDesc)
	for i, v := range out {
		if mask[i] && v != v {
			return nil, fmt.Errorf("search: partition %d: log likelihood is NaN with shared-parameter columns %v set to %g", i, cols, s.sharedRows[i][cols[0]])
		}
	}
	return out, nil
}

// ---------- SPR topology moves ----------

// sprRound performs one lazy-SPR sweep: every inner vertex's subtree is
// pruned, all its reinsertions within the radius are scored in one
// evaluation region per prune point, and the best one is verified
// exactly (local branch optimization + full evaluation) and kept if it
// improves the current score. Returns the final lnL.
func (s *Searcher) sprRound(radius int) (float64, error) {
	s.counts[telemetry.RankSPRRounds]++
	cur := s.evaluateFull()
	for v := 0; v < s.Tree.NInner(); v++ {
		pruneAt := s.Tree.InnerRing(v)
		for k := 0; k < 3; k, pruneAt = k+1, pruneAt.Next {
			improved, newLnL, err := s.tryPrunePoint(pruneAt, radius, cur)
			if err != nil {
				return 0, err
			}
			if improved {
				cur = newLnL
			}
		}
	}
	return cur, nil
}

// tryPrunePoint scores all insertions of the subtree pruned at p and
// verifies the best. Every score is the exact likelihood of its
// regrafted tree at the split branch lengths Regraft assigns — the bits
// a forced full evaluation of that tree returns (DETERMINISM.md §9) —
// computed without regrafting: one insertion plan, one engine call. A
// failed tree operation is an invariant violation the caller cannot
// repair; it fails the search instead of the process.
func (s *Searcher) tryPrunePoint(p *tree.Node, radius int, cur float64) (bool, float64, error) {
	ps := &s.pruned
	if err := s.Tree.PruneInto(ps, p); err != nil {
		return false, cur, nil
	}
	s.counts[telemetry.RankSPRPrunes]++
	s.sprCands = ps.AppendCandidateEdges(s.sprCands[:0], 1, radius)
	candidates := s.sprCands
	if len(candidates) == 0 {
		if err := s.Tree.Restore(ps); err != nil {
			return false, cur, fmt.Errorf("search: restore: %w", err)
		}
		return false, cur, nil
	}
	s.insPlan.Build(s.Tree, ps, candidates, s.dirty)
	s.counts[telemetry.RankSPRInsertionPlans]++
	s.counts[telemetry.RankSPRCandidatesScored] += int64(len(candidates))
	scores := s.eng.ScoreInsertions(&s.insPlan)
	if s.insertionHook != nil {
		s.insertionHook(ps, candidates, scores)
	}
	bestTrial := math.Inf(-1)
	bestIdx := -1
	for i := range candidates {
		if trial := sum(scores[i*s.nPart : (i+1)*s.nPart]); trial > bestTrial {
			bestTrial = trial
			bestIdx = i
		}
	}
	if bestIdx >= 0 && bestTrial > cur-1.0 {
		improved, exact, err := s.verifyInsertion(ps, candidates[bestIdx], cur)
		if improved || err != nil {
			return improved, exact, err
		}
	}
	if err := s.Tree.Restore(ps); err != nil {
		return false, cur, fmt.Errorf("search: restore: %w", err)
	}
	return false, cur, nil
}

// verifyInsertion regrafts the pruned subtree into e, optimizes the
// three branches around the insertion point, and evaluates exactly. An
// insertion that does not beat cur is taken out again, leaving the tree
// pruned.
func (s *Searcher) verifyInsertion(ps *tree.PrunedSubtree, e *tree.Node, cur float64) (bool, float64, error) {
	s.counts[telemetry.RankSPRVerifications]++
	p := ps.Root
	if err := s.Tree.Regraft(ps, e); err != nil {
		return false, cur, fmt.Errorf("search: regraft best: %w", err)
	}
	// Scoring wrote no CLV slot. From here every slot a descriptor writes
	// holds a vector of the regrafted tree: record them, they are stale
	// for the restored topology if the move is rejected.
	s.beginTouch()
	defer s.endTouch()
	// The subtree's attachment edge (p, p.Back) survives a later
	// Restore, so save its lengths before optimizing them.
	s.savedAttach = append(s.savedAttach[:0], p.Branch.Lengths...)
	// p's slot holds what an earlier prune point left there: turn its
	// orientation away so the first traversal computes it for this
	// insertion.
	tree.OrientX(p.Next)
	s.updateBranch(p)
	s.updateBranch(p.Next)
	s.updateBranch(p.Next.Next)
	// The exact evaluation must leave the engine byte-identical to a
	// forced full traversal. A vector holds the move — the new topology
	// or one of the three re-optimized lengths — only if it looks away
	// from p, and rooting at p recomputes every such vector for its
	// orientation alone; what the three optimizations wrote is marked on
	// top of that.
	s.markTouchedDirty()
	exact := s.evaluateFullAt(p)
	if exact > cur+1e-9 {
		s.counts[telemetry.RankSPRImprovements]++
		return true, exact, nil
	}
	copy(p.Branch.Lengths, s.savedAttach)
	if err := s.Tree.RemoveRegraft(ps); err != nil {
		return false, cur, fmt.Errorf("search: undo best: %w", err)
	}
	// The topology goes back to the pre-prune state: only the slots the
	// rejected verification wrote are stale.
	s.markTouchedDirty()
	return false, cur, nil
}

// ---------- incremental-traversal bookkeeping ----------

// beginTouch starts recording the CLV slots descriptors write (one SPR
// verification's churn); endTouch stops recording.
func (s *Searcher) beginTouch() {
	if s.touched == nil {
		s.touched = make([]bool, s.Tree.NInner())
	}
	for i := range s.touched {
		s.touched[i] = false
	}
	s.touching = true
}

func (s *Searcher) endTouch() { s.touching = false }

// noteSteps records a descriptor's destination slots into the touch set.
func (s *Searcher) noteSteps(d *traversal.Descriptor) {
	if !s.touching {
		return
	}
	for _, st := range d.Steps[0] {
		s.touched[st.Dst.Idx] = true
	}
}

// markTouchedDirty marks every slot written since beginTouch as dirty:
// their bytes derive from the regrafted topology, so the next full-tree
// evaluation must recompute them to leave the bytes of a forced full
// traversal.
func (s *Searcher) markTouchedDirty() {
	for i, t := range s.touched {
		if t {
			s.dirty[i] = true
		}
	}
}
