// Command tracegen emits the memory reference stream of a workload's
// performance clone (the trace form of the clone Section 3.1.4 mentions)
// — one reference per line as "R <addr>" / "W <addr>" — or replays it
// against caches.
//
// Usage:
//
//	tracegen -workload crc32 -n 100000 > trace.txt
//	tracegen -workload crc32 -n 1000000 -replay 4KB
//	tracegen -workload crc32 -n 1000000 -replay 4KB,8KB,16KB
//
// The clone is the one `clonegen -workload W` emits by default (seed 1,
// no -validate); its whole run is captured and the first -n references
// of the capture are printed. A clone that halts sooner prints all of its
// references and says how many on stderr. A -replay list feeds the same
// references through one cache.ReplaySet holding every listed size, each
// 2-way with 32 B lines, and prints one line per size in input order.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/store"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

func main() {
	name := flag.String("workload", "", "workload to profile")
	profIn := flag.String("profile-in", "", "use a saved profile JSON instead")
	n := flag.Int("n", 100_000, "number of references to emit")
	replay := flag.String("replay", "", "instead of printing, replay against caches of these comma-separated sizes (e.g. 4KB,8KB)")
	storeDir := flag.String("store", "", "directory for the durable profile store (reuses a cached profile when present)")
	strictStore := flag.Bool("strict-store", false, "abort on a corrupt or unreadable cached profile instead of quarantining and recollecting")
	flag.Parse()

	if *n < 1 {
		fmt.Fprintln(os.Stderr, "tracegen: -n must be >= 1")
		os.Exit(2)
	}

	if err := run(os.Stdout, os.Stderr, *name, *profIn, *n, *replay, *storeDir, *strictStore); err != nil {
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

// loadProfile reads the profile from profIn, or collects the named
// workload's through the store (a nil store just collects).
func loadProfile(ctx context.Context, name, profIn, storeDir string, strictStore bool) (*profile.Profile, error) {
	if profIn != "" {
		f, err := os.Open(profIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return profile.Load(f)
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	p := w.Build()
	var st *store.Store
	if storeDir != "" {
		st, err = store.Open(storeDir, store.WithStrict(strictStore))
		if err != nil {
			return nil, err
		}
	}
	prof, _, err := st.Profile(name, p, profile.DefaultMaxInsts, func() (*profile.Profile, error) {
		return profile.CollectContext(ctx, p, profile.Options{MaxInsts: profile.DefaultMaxInsts})
	})
	return prof, err
}

// run writes the first n references of the profile's default clone to
// stdout, as text or, with a -replay list, as one cache summary per size.
func run(stdout, stderr io.Writer, name, profIn string, n int, replay, storeDir string, strictStore bool) error {
	var cfgs []cache.Config
	var rs *cache.ReplaySet
	if replay != "" {
		for _, spec := range strings.Split(replay, ",") {
			size, err := parseSize(spec)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, cache.Config{Size: size, Assoc: 2, LineSize: 32})
		}
		var err error
		if rs, err = cache.NewReplaySet(cfgs); err != nil {
			return err
		}
	}
	ctx := context.Background()
	prof, err := loadProfile(ctx, name, profIn, storeDir, strictStore)
	if err != nil {
		return err
	}
	clone, err := synth.GenerateContext(ctx, prof, synth.Config{})
	if err != nil {
		return err
	}
	tr, err := dyntrace.CaptureContext(ctx, clone.Program, 0)
	if err != nil {
		return err
	}

	bw := bufio.NewWriter(stdout)
	left := uint64(n)
	for w := tr.Walk(0); left > 0 && !w.Done(); {
		c, err := w.Next(ctx)
		if err != nil {
			return err
		}
		addrs := c.Addrs[:min(uint64(len(c.Addrs)), left)]
		left -= uint64(len(addrs))
		if rs != nil {
			if err := rs.AccessStreamContext(ctx, addrs, c.Stores); err != nil {
				return err
			}
			continue
		}
		for j, a := range addrs {
			dir := byte('R')
			if c.Stores[j>>6]>>(uint(j)&63)&1 == 1 {
				dir = 'W'
			}
			fmt.Fprintf(bw, "%c %d\n", dir, a)
		}
	}
	if left > 0 {
		fmt.Fprintf(stderr, "tracegen: the clone of %s halted after %d references, fewer than -n %d\n",
			prof.Name, uint64(n)-left, n)
	}
	if rs != nil {
		for i, st := range rs.Stats() {
			fmt.Fprintf(bw, "%s on %s: %d accesses, %.3f%% miss, %d writebacks\n",
				prof.Name, cfgs[i].String(), st.Accesses, 100*st.MissRate(), st.Writebacks)
		}
	}
	return bw.Flush()
}
