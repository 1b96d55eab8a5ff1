package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// parityJobs is the stream prefix pushed through the real junctiond.
const parityJobs = 2000

// buildJunctiond builds the real daemon from the checkout's source.
func buildJunctiond(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/junctiond")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build junctiond: %w\n%s", err, msg)
	}
	return nil
}

// parity pushes the first jobs of the stream through a junctiond child and
// through the in-process stack, one closed-loop client each, and returns the
// two decision digests: proof that what is timed is what junctiond serves.
// It is a check, not a measurement; nothing here is timed.
func parity(s *spec, seed int64, bin, walRoot string) (child, inproc uint64, err error) {
	dir := filepath.Join(walRoot, s.Name+"-junctiond")
	defer os.RemoveAll(dir)
	cmd := exec.Command(bin, "-serve", "-wal-dir", dir, "-wal-sync", s.Sync,
		"-admit-procs", strconv.Itoa(s.Procs), "-admit-addr", "127.0.0.1:0",
		"-size", "64", "-rects", "1", "-workers", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, 0, fmt.Errorf("start junctiond: %w", err)
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		return cmd.Wait()
	}
	defer stop()

	// junctiond announces the plane's address, runs its demo, then prints
	// "serving"; the output after that is drained so it never blocks.
	ready := make(chan string, 1)
	go func() {
		addr := ""
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "admission plane: "); ok {
				addr, _, _ = strings.Cut(rest, " ")
			}
			if strings.HasPrefix(line, "serving") {
				ready <- addr
			}
		}
		close(ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
	}
	if addr == "" {
		return 0, 0, fmt.Errorf("junctiond did not announce a serving admission plane")
	}

	digest := func(c admitter) (uint64, error) {
		st, err := newStream(s, seed)
		if err != nil {
			return 0, err
		}
		feed, l := feeder{st: st}, lap{}
		feed.fill(&l, parityJobs)
		if _, err := runLap([]admitter{c}, &l, 0, 0); err != nil {
			return 0, err
		}
		h := uint64(fnvOffset)
		for i, job := range l.jobs {
			if err := l.errs[i]; err != nil && !isRejected(err) {
				return 0, fmt.Errorf("job %d: %w", job.ID, err)
			}
			h = foldDecision(h, job, l.grants[i])
		}
		return h, nil
	}
	remote, err := dial(addr)
	if err != nil {
		return 0, 0, err
	}
	child, err = digest(remote)
	remote.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("junctiond: %w", err)
	}
	if err := stop(); err != nil {
		return 0, 0, fmt.Errorf("junctiond exit: %w", err)
	}

	p := pass{s: s, dir: filepath.Join(walRoot, s.Name+"-parity"), clients: 1}
	defer os.RemoveAll(p.dir)
	clients, down, err := stackUp(&p)
	if err != nil {
		return 0, 0, err
	}
	inproc, err = digest(clients[0])
	if derr := down(); err == nil {
		err = derr
	}
	return child, inproc, err
}
