// Command phyrun orchestrates a full inference campaign: N independent
// maximum-likelihood searches (random and/or parsimony starts) plus B
// nonparametric bootstrap replicates, scheduled concurrently and
// reduced to one support-annotated best tree and a majority-rule
// consensus (docs/ORCHESTRATOR.md).
//
// The campaign is deterministic: every task derives its seeds from the
// campaign seed (-p) through a splittable hash, so the same invocation
// produces bit-identical outputs at any -workers value, on either
// backend, and across kill/resume cycles.
//
//	-s/-q           alignment + partition scheme (or -sim-* to simulate)
//	-starts         random-start ML searches
//	-parsimony-starts  parsimony-start ML searches
//	-bootstrap      bootstrap replicates (budget; see -autostop)
//	-autostop       stop bootstrapping at the frequency criterion
//	-backend        local (in-process pool) or service (examld daemon)
//	-campaign FILE  resumable manifest: a killed run re-runs only
//	                missing tasks; a resume with other inputs (data,
//	                -np, -iter, …) is refused
//	-n PREFIX       outputs: PREFIX.bestTree.nwk, PREFIX.support.nwk,
//	                PREFIX.consensus.nwk, PREFIX.bootstraps.nwk,
//	                PREFIX.campaign.json
//
// Examples:
//
//	phyrun -s data.phy -q parts.txt -starts 10 -bootstrap 100 -autostop -workers 4 -n run1
//	phyrun -sim-taxa 12 -sim-genelen 80 -starts 2 -bootstrap 20 -backend service -service http://127.0.0.1:8441 -n run2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	examl "repro"
	"repro/internal/metrics"
	"repro/internal/phyrun"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phyrun: ")

	var (
		alignPath = flag.String("s", "", "alignment file (relaxed PHYLIP)")
		partPath  = flag.String("q", "", "partition scheme file (RAxML format)")
		simTaxa   = flag.Int("sim-taxa", 0, "simulate a dataset with this many taxa instead of -s")
		simParts  = flag.Int("sim-partitions", 1, "simulated partitions")
		simLen    = flag.Int("sim-genelen", 60, "simulated gene length per partition")
		simSeed   = flag.Int64("sim-seed", 42, "simulated dataset seed")

		seed       = flag.Int64("p", 12345, "campaign seed (all task seeds derive from it)")
		starts     = flag.Int("starts", 1, "random-start ML searches")
		parsStarts = flag.Int("parsimony-starts", 0, "parsimony-start ML searches")
		boots      = flag.Int("bootstrap", 0, "bootstrap replicates (budget when -autostop is set)")

		autostop   = flag.Bool("autostop", false, "adaptive bootstopping: stop replicates at the frequency criterion")
		stopEvery  = flag.Int("autostop-every", 0, "bootstop checkpoint spacing in replicates (0 = default 10)")
		stopCutoff = flag.Float64("autostop-cutoff", 0, "bootstop split-frequency cutoff (0 = default 0.03)")
		stopPerms  = flag.Int("autostop-perms", 0, "bootstop pseudo-half permutations per checkpoint (0 = default 100)")

		backend    = flag.String("backend", "local", "task backend: local (in-process) or service (examld)")
		serviceURL = flag.String("service", "", "service backend: examld base URL (e.g. http://127.0.0.1:8441)")
		label      = flag.String("label", "", "service backend: campaign label on submitted jobs (default phyrun-<seed>)")

		workers = flag.Int("workers", 1, "concurrent tasks (wall-clock only; results are identical at any value)")
		ranks   = flag.Int("np", 1, "ranks per task")
		threads = flag.Int("T", 1, "threads per rank")
		iters   = flag.Int("iter", 0, "maximum search iterations per task (0 = default)")
		epsilon = flag.Float64("epsilon", 0, "likelihood convergence epsilon (0 = default)")
		radius  = flag.Int("radius", 0, "SPR rearrangement radius (0 = default)")

		manifestPath = flag.String("campaign", "", "campaign manifest file (enables kill/resume)")
		name         = flag.String("n", "phyrun", "run name (output prefix)")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus metrics at GET /metrics on this address during the run")

		dieAfterTasks = flag.Int("die-after-tasks", 0, "test hook: exit(7) after this many task completions (exercises -campaign resume)")
	)
	flag.Parse()

	if err := run(runArgs{
		alignPath: *alignPath, partPath: *partPath,
		simTaxa: *simTaxa, simParts: *simParts, simLen: *simLen, simSeed: *simSeed,
		seed: *seed, starts: *starts, parsStarts: *parsStarts, boots: *boots,
		autostop: *autostop, stopEvery: *stopEvery, stopCutoff: *stopCutoff, stopPerms: *stopPerms,
		backend: *backend, serviceURL: *serviceURL, label: *label,
		workers: *workers, ranks: *ranks, threads: *threads,
		iters: *iters, epsilon: *epsilon, radius: *radius,
		manifestPath: *manifestPath, name: *name, metricsAddr: *metricsAddr,
		dieAfterTasks: *dieAfterTasks,
	}); err != nil {
		log.Fatal(err)
	}
}

type runArgs struct {
	alignPath, partPath             string
	simTaxa, simParts, simLen       int
	simSeed                         int64
	seed                            int64
	starts, parsStarts, boots       int
	autostop                        bool
	stopEvery                       int
	stopCutoff                      float64
	stopPerms                       int
	backend, serviceURL, label      string
	workers, ranks, threads         int
	iters                           int
	epsilon                         float64
	radius                          int
	manifestPath, name, metricsAddr string
	dieAfterTasks                   int
}

func run(a runArgs) error {
	plan := phyrun.Plan{
		Seed:            a.seed,
		RandomStarts:    a.starts,
		ParsimonyStarts: a.parsStarts,
		Replicates:      a.boots,
	}
	if a.autostop {
		if a.boots == 0 {
			return fmt.Errorf("-autostop needs a -bootstrap budget")
		}
		plan.Bootstop = &phyrun.BootstopConfig{
			CheckEvery:   a.stopEvery,
			Cutoff:       a.stopCutoff,
			Permutations: a.stopPerms,
		}
	}
	if err := plan.Validate(); err != nil {
		return err
	}

	// The task template, described once: the service backend submits
	// it per task, and the local backend and the manifest's inputs
	// digest take their dataset and Config from the translation the
	// service workers run on it.
	spec := client.JobSpec{
		Ranks:         a.ranks,
		Threads:       a.threads,
		MaxIterations: a.iters,
		Epsilon:       a.epsilon,
		SPRRadius:     a.radius,
	}
	if a.simTaxa > 0 {
		if a.alignPath != "" {
			return fmt.Errorf("use either -s or -sim-taxa, not both")
		}
		spec.Simulate = &client.SimulateSpec{Taxa: a.simTaxa, Partitions: a.simParts, GeneLength: a.simLen, Seed: a.simSeed}
	} else {
		if a.alignPath == "" {
			return fmt.Errorf("an alignment is required (-s, or -sim-taxa to simulate)")
		}
		raw, err := os.ReadFile(a.alignPath)
		if err != nil {
			return err
		}
		spec.Phylip = string(raw)
		if a.partPath != "" {
			raw, err := os.ReadFile(a.partPath)
			if err != nil {
				return err
			}
			spec.Partitions = string(raw)
		}
	}

	var runner phyrun.Runner
	switch a.backend {
	case "local":
		// Built below, over the translated inputs.
	case "service":
		if a.serviceURL == "" {
			return fmt.Errorf("-backend service needs -service URL")
		}
		label := a.label
		if label == "" {
			label = fmt.Sprintf("phyrun-%d", a.seed)
		}
		runner = &phyrun.ServiceRunner{Client: client.New(a.serviceURL), Base: spec, Campaign: label}
	default:
		return fmt.Errorf("unknown backend %q (want local or service)", a.backend)
	}
	var inputsDigest string
	if runner == nil || a.manifestPath != "" {
		d, cfg, err := service.JobInputs(&spec)
		if err != nil {
			return err
		}
		if runner == nil {
			// A live page implies telemetry collection, as in cmd/examl:
			// the spans feed its kernel series. It moves no bit.
			cfg.Telemetry = a.metricsAddr != ""
			runner = &examl.LocalCampaignRunner{Dataset: d, Config: cfg}
		}
		if a.manifestPath != "" {
			inputsDigest = examl.CampaignDigest(d, cfg)
		}
	}

	reg := metrics.NewRegistry()
	m := phyrun.NewMetrics(reg)
	if a.metricsAddr != "" {
		// The page lists only what moves in this process: inference
		// series do only when the local backend runs the tasks here.
		regs := []*metrics.Registry{reg}
		if a.backend == "local" {
			regs = append(regs, metrics.Default())
		}
		bound, stop, err := metrics.Serve(a.metricsAddr, regs, false)
		if err != nil {
			return fmt.Errorf("binding -metrics-addr %s: %w", a.metricsAddr, err)
		}
		defer stop()
		log.Printf("observability: /metrics on http://%s", bound)
	}

	var onDone func(phyrun.Task, *phyrun.TaskRecord)
	if a.dieAfterTasks > 0 {
		n := 0
		onDone = func(t phyrun.Task, _ *phyrun.TaskRecord) {
			if n++; n >= a.dieAfterTasks {
				log.Printf("die-after-tasks: exiting after %d completion(s) (last: %s)", n, t.ID())
				os.Exit(7)
			}
		}
	}

	res, err := phyrun.Run(context.Background(), phyrun.Config{
		Plan:         plan,
		Runner:       runner,
		Workers:      a.workers,
		ManifestPath: a.manifestPath,
		InputsDigest: inputsDigest,
		Logf:         log.Printf,
		Metrics:      m,
		OnTaskDone:   onDone,
	})
	if err != nil {
		return err
	}
	return report(a.name, plan, res)
}

// report writes the campaign outputs and a summary line.
func report(prefix string, plan phyrun.Plan, res *phyrun.Result) error {
	writeFile := func(suffix, content string) error {
		return os.WriteFile(prefix+suffix, []byte(content), 0o644)
	}
	if err := writeFile(".bestTree.nwk", res.BestTree+"\n"); err != nil {
		return err
	}
	payload, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(".campaign.json", string(payload)+"\n"); err != nil {
		return err
	}
	log.Printf("best: start %d, lnl %.6f (bits %s) → %s.bestTree.nwk",
		res.BestStart, res.BestLogLikelihood, res.BestLnLBits, prefix)

	if len(res.ReplicateTrees) > 0 {
		if err := writeFile(".support.nwk", res.AnnotatedTree+"\n"); err != nil {
			return err
		}
		if err := writeFile(".consensus.nwk", res.ConsensusTree+"\n"); err != nil {
			return err
		}
		if err := writeFile(".bootstraps.nwk", strings.Join(res.ReplicateTrees, "\n")+"\n"); err != nil {
			return err
		}
		if res.Converged {
			log.Printf("bootstop: converged at %d of %d replicate(s) (%d run)",
				res.ConvergedAt, plan.Replicates, res.ReplicatesRun)
		}
		log.Printf("supports: %d replicate(s) → %s.support.nwk, %s.consensus.nwk, %s.bootstraps.nwk",
			len(res.ReplicateTrees), prefix, prefix, prefix)
	}
	return nil
}
