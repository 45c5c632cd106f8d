// Partitioned analysis: the whole-genome use case from the paper's
// introduction (1KITE-style). A many-partition dataset is analyzed with
// an independent Γ shape per gene and individual per-partition branch
// lengths (the -M option) — the configuration that stresses the fork-join
// scheme hardest and that the de-centralized scheme was built for. The
// data distribution keeps whole genes on a rank by itself (the paper's
// -Q / MPS needed a flag for it); the banner line reports what it did.
//
//	go run ./examples/partitioned
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// 24 taxa, 40 genes of 200 bp — per-gene evolutionary heterogeneity
	// is built into the generator, so per-partition parameters matter.
	dataset, err := examl.Simulate(24, 40, 200, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("whole-genome style dataset: %d taxa, %d gene partitions, %d sites\n",
		dataset.NTaxa(), dataset.NPartitions(), dataset.Sites())

	cfg := examl.Config{
		Ranks:                     6,
		PerPartitionBranchLengths: true, // -M: per-gene branch lengths
		MaxIterations:             2,
		Seed:                      3,
	}
	most, split, err := dataset.Layout(cfg.Ranks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on %d ranks: at most %d genes per rank, %d split over two ranks or more\n", cfg.Ranks, most, split)

	fmt.Println("\n--- de-centralized scheme (ExaML) ---")
	dec, err := examl.Infer(dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}
	printRun(dec)

	fmt.Println("\n--- fork-join scheme (RAxML-Light) ---")
	cfg.Scheme = examl.ForkJoin
	fj, err := examl.Infer(dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}
	printRun(fj)

	rf, err := examl.RobinsonFoulds(dec.Tree, fj.Tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame search algorithm, same answer: RF distance = %d, ΔlnL = %.2e\n",
		rf, dec.LogLikelihood-fj.LogLikelihood)
	fmt.Printf("but the fork-join scheme moved %.1f× more bytes (%d vs %d)\n",
		float64(fj.Comm.TotalBytes)/float64(dec.Comm.TotalBytes),
		fj.Comm.TotalBytes, dec.Comm.TotalBytes)
}

func printRun(r *examl.Result) {
	fmt.Printf("lnL %.4f in %d iterations, %.2fs wall\n", r.LogLikelihood, r.Iterations, r.WallSeconds)
	for _, c := range r.Comm.Classes {
		fmt.Printf("  %-22s %10d bytes (%5.1f%%)\n", c.Name, c.Bytes, 100*c.ByteShare)
	}
}
