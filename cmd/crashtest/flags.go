package main

import (
	"flag"
	"io"
)

type flags struct {
	fs       *flag.FlagSet
	mode     *string
	seed     *int64
	iters    *int
	ops      *int
	callers  *int
	kills    *int
	dir      *string
	artifact *string
}

func newFlags(stderr io.Writer) flags {
	fs := flag.NewFlagSet("crashtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return flags{
		fs:       fs,
		mode:     fs.String("mode", "vfs", "vfs (in-memory fault-injected crash loop) | sigkill (real-process kill loop) | soak (one log lineage through crash cycles) | child (internal)"),
		seed:     fs.Int64("seed", 0, "run seed (0 = derive from the clock; the chosen seed is always printed)"),
		iters:    fs.Int("iters", 15, "vfs mode: crash-loop epochs (phases cycle per epoch); soak mode: crash/recover cycles"),
		ops:      fs.Int("ops", 120, "vfs mode: ops per epoch (each op is one WAL record); soak mode: ops per cycle, run on to the next grant"),
		callers:  fs.Int("callers", 1, "vfs mode: connections driving the storm; above 1 most crashes are taken mid-flight, at a journal write or flush"),
		kills:    fs.Int("kills", 5, "sigkill mode: child kill/recover cycles"),
		dir:      fs.String("dir", "", "sigkill/child mode: WAL directory (default: a temp dir)"),
		artifact: fs.String("artifact", "", "append divergence reports to this divergence artifact (JSONL) for CI upload"),
	}
}
