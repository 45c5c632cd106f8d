// Command examl performs maximum-likelihood phylogenetic inference with
// the de-centralized parallelization scheme (the paper's contribution).
// Flags mirror the original ExaML where meaningful:
//
//	-s  alignment (relaxed PHYLIP, or binary with -b)
//	-q  partition-scheme file (RAxML format)
//	-m  GAMMA or PSR rate heterogeneity
//	-M  individual per-partition branch lengths
//	-np number of simulated MPI ranks
//	-T  worker threads per rank (§V hybrid scheme; results are
//	    bit-identical at any thread count)
//	-t  starting tree (Newick file; random if absent)
//	-c  checkpoint file (written per iteration; use -r to restore)
//
// Network transport (docs/NETWORKING.md) — ranks as OS processes over
// TCP instead of goroutines:
//
//	-net-launch       fork the whole world locally over loopback and wait
//	-net-rank N       run as rank N of a hand-launched world
//	-net-size S       world size in processes
//	-net-addr H:P     rendezvous address (rank 0 listens there)
//	-net-nonce X      shared run nonce (stale-worker rejection)
//	-net-recoveries R survivor-recovery budget after peer failures
//
// Observability (docs/OBSERVABILITY.md):
//
//	-stats            print the end-of-run telemetry report (kernel
//	                  spans, collective timing, load imbalance)
//	-stats-json FILE  write that report as JSON
//	-trace FILE       stream a JSONL span-event trace (merge multi-rank
//	                  traces with cmd/phytrace)
//	-metrics-addr A   serve Prometheus metrics at GET /metrics on A for
//	                  the duration of the run (net mode: rank 0 only)
//	-pprof            also mount /debug/pprof/ on the metrics listener
//
// The data distribution is not a flag: partitions stay whole on a rank
// within cyclic distribution's per-rank pattern quotas (internal/distrib),
// where the paper's ExaML needed -Q for it. The banner reports what the
// rule did: the most partitions on a rank and how many are split.
//
// Example:
//
//	examl -s data.phy -q parts.txt -m GAMMA -np 8 -T 4 -stats -n run1
package main

import (
	"flag"
	"log"

	"repro"
	"repro/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("examl: ")
	var args cli.Args
	cli.Register(&args)
	flag.Parse()
	args.Scheme = examl.Decentralized
	switch {
	case args.NetLaunch:
		if err := cli.Launch(args); err != nil {
			log.Fatal(err)
		}
	case args.NetRank >= 0:
		nr, err := cli.RunNet(args)
		if err != nil {
			log.Fatal(err)
		}
		cli.ReportNet(args, nr)
	default:
		res, err := cli.Run(args)
		if err != nil {
			log.Fatal(err)
		}
		cli.Report(args, res)
	}
}
