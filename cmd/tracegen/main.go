// Command tracegen emits a synthetic memory address trace from a workload
// profile (the trace-form output Section 3.1.4 mentions) — one reference
// per line as "R <addr>" / "W <addr>" — or replays it against a cache.
//
// Usage:
//
//	tracegen -workload crc32 -n 100000 > trace.txt
//	tracegen -workload crc32 -n 1000000 -replay 4KB
//	tracegen -workload crc32 -n 1000000 -replay 4KB,8KB,16KB -workers 3
//
// With a comma-separated -replay list the sizes replay concurrently on
// -workers goroutines (0 = GOMAXPROCS); each replay regenerates the
// synthetic stream from the profile's seeded generator, so results are
// identical for every worker count and print in input order.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"perfclone/internal/cache"
	"perfclone/internal/profile"
	"perfclone/internal/store"
	"perfclone/internal/trace"
	"perfclone/internal/workloads"
)

func main() {
	name := flag.String("workload", "", "workload to profile")
	profIn := flag.String("profile-in", "", "use a saved profile JSON instead")
	n := flag.Int("n", 100_000, "number of references to generate")
	replay := flag.String("replay", "", "instead of printing, replay against caches of these comma-separated sizes (e.g. 4KB,8KB)")
	workers := flag.Int("workers", 0, "worker goroutines for multi-size -replay (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "directory for the durable profile store (reuses a cached profile when present)")
	strictStore := flag.Bool("strict-store", false, "abort on a corrupt or unreadable cached profile instead of quarantining and recollecting")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "tracegen: -workers must be >= 0 (0 = GOMAXPROCS)")
		os.Exit(2)
	}

	if err := run(*name, *profIn, *n, *replay, *workers, *storeDir, *strictStore); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func parseSize(s string) (int, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

func run(name, profIn string, n int, replay string, workers int, storeDir string, strictStore bool) error {
	var prof *profile.Profile
	if profIn != "" {
		f, err := os.Open(profIn)
		if err != nil {
			return err
		}
		defer f.Close()
		prof, err = profile.Load(f)
		if err != nil {
			return err
		}
	} else {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		p := w.Build()
		var st *store.Store
		if storeDir != "" {
			st, err = store.Open(storeDir, store.WithStrict(strictStore))
			if err != nil {
				return err
			}
		}
		prof, _, err = st.Profile(name, p, profile.DefaultMaxInsts, func() (*profile.Profile, error) {
			return profile.Collect(p, profile.Options{MaxInsts: profile.DefaultMaxInsts})
		})
		if err != nil {
			return err
		}
	}

	if replay != "" {
		return replaySizes(prof, replay, n, workers)
	}

	g, err := trace.New(prof)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := 0; i < n; i++ {
		r := g.Next()
		dir := byte('R')
		if r.Write {
			dir = 'W'
		}
		fmt.Fprintf(w, "%c %d\n", dir, r.Addr)
	}
	return nil
}

// replaySizes replays the profile's synthetic stream against one cache
// per comma-separated size, striping the sizes over a worker pool. Each
// trace.Replay builds its own generator from the profile's stored seed,
// so every size's result is independent of worker count and ordering;
// results print in input order once all workers have joined.
func replaySizes(prof *profile.Profile, replay string, n, workers int) error {
	specs := strings.Split(replay, ",")
	cfgs := make([]cache.Config, len(specs))
	for i, spec := range specs {
		size, err := parseSize(spec)
		if err != nil {
			return err
		}
		cfgs[i] = cache.Config{Size: size, Assoc: 2, LineSize: 32}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	// Greppable counters line, mirroring cmd/experiments.
	fmt.Fprintf(os.Stderr, "tracegen: workers %d effective (replays %d)\n", workers, len(cfgs))

	stats := make([]cache.Stats, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cfgs); i += workers {
				stats[i], errs[i] = trace.Replay(prof, cfgs[i], n)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, cfg := range cfgs {
		st := stats[i]
		fmt.Printf("%s on %s: %d accesses, %.3f%% miss, %d writebacks\n",
			prof.Name, cfg.String(), st.Accesses, 100*st.MissRate(), st.Writebacks)
	}
	return nil
}
