// Command raxml-light performs the same maximum-likelihood inference as
// the examl command but under the classical fork-join parallelization
// scheme — the comparator the paper measures against. Both binaries run
// exactly the same search algorithm; comparing their communication
// profiles on the same dataset reproduces the paper's core contrast.
//
// Flags are identical to examl's; see that command's documentation.
package main

import (
	"repro"
	"repro/internal/cli"
)

func main() { cli.Main("raxml-light", examl.ForkJoin) }
