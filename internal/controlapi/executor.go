package controlapi

// The executor side of the control plane: workers claim jobs and drive
// the in-process stage drivers, then commit the rendered artifact with
// faultinject.CommitFile, the store's fsync-then-rename protocol. The
// ordering is the heart of the exactly-once argument: the artifact
// becomes durable *before* the terminal WAL record, execution is
// deterministic, and the commit is an atomic rename — so a crash
// anywhere between claim and terminal record re-runs the job into a
// byte-identical artifact.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"perfclone/internal/codegen"
	"perfclone/internal/experiments"
	"perfclone/internal/faultinject"
	"perfclone/internal/fidelity"
	"perfclone/internal/jobqueue"
	"perfclone/internal/profile"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// worker is one pool goroutine: claim, run, repeat until drain or death.
func (s *Server) worker(ctx context.Context) {
	for {
		job, err := s.cfg.Queue.Claim(ctx)
		if err != nil {
			return // draining, or the daemon is dying
		}
		s.runJob(ctx, job)
	}
}

// runJob executes one claimed job under supervision and journals its
// outcome. A cancellation that came from the daemon (drain, death) is
// not a job failure: the job rewinds to pending and the next start —
// or the next worker — resumes it from its store checkpoints.
func (s *Server) runJob(ctx context.Context, j jobqueue.Job) {
	jctx, cancel := supervise.StageContext(ctx, "job/"+j.ID, s.cfg.JobTimeout)
	defer cancel()
	var artifact []byte
	err := s.super.Run(jctx,
		supervise.Spec{Name: "job/" + j.ID, Retries: s.cfg.TaskRetries, Quiet: s.cfg.Watchdog},
		func(tctx context.Context) error {
			out, xerr := s.execute(tctx, j)
			if xerr == nil {
				artifact = out
			}
			return xerr
		})
	if err != nil && ctx.Err() != nil {
		s.cfg.Queue.Release(j.ID)
		fmt.Fprintf(s.log, "controlapi: job %s checkpointed for resume (%v)\n", j.ID, supervise.Cause(ctx))
		return
	}
	if err == nil {
		// Artifact durable first, terminal record second: the crash
		// window between the two re-runs the job, which rewrites the same
		// bytes via an atomic rename — never a duplicate or torn commit.
		name := j.ID + ".out"
		if werr := s.commitArtifact(name, artifact); werr != nil {
			err = werr
		} else {
			if cerr := s.cfg.Queue.Complete(j.ID, name, nil); cerr != nil {
				fmt.Fprintf(s.log, "controlapi: %v\n", cerr)
			}
			return
		}
	}
	if cerr := s.cfg.Queue.Complete(j.ID, "", err); cerr != nil {
		fmt.Fprintf(s.log, "controlapi: %v\n", cerr)
	}
}

func (s *Server) artifactPath(name string) string {
	return filepath.Join(s.cfg.DataDir, "artifacts", name)
}

// commitArtifact makes the job output durable with faultinject.CommitFile
// (temp file, fsync, atomic rename, directory fsync), the store's commit,
// through the same seam so chaos tests can tear it. A directory fsync
// that keeps failing fails the commit: the job must not reach its
// terminal record on a rename that may not be durable.
func (s *Server) commitArtifact(name string, data []byte) error {
	dir := filepath.Join(s.cfg.DataDir, "artifacts")
	if err := faultinject.Retry(func() error { return s.fs.MkdirAll(dir, 0o755) }); err != nil {
		return fmt.Errorf("controlapi: %w", err)
	}
	return faultinject.Retry(func() error {
		err := faultinject.CommitFile(s.fs, filepath.Join(dir, name), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			return fmt.Errorf("controlapi: %w", err)
		}
		return nil
	})
}

// sweepArtifactTemps removes the temp files of artifact commits that a
// crash cut short. Only this daemon's workers commit into its data dir,
// and Start runs it before any worker exists, so every temp file found
// is debris; the jobs that wrote them re-run and commit again.
func (s *Server) sweepArtifactTemps() {
	dir := filepath.Join(s.cfg.DataDir, "artifacts")
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return // nothing committed yet
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			_ = s.fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// execute renders one job's artifact bytes. Everything here is
// deterministic for a fixed spec — the exactly-once argument leans on
// that.
func (s *Server) execute(ctx context.Context, j jobqueue.Job) ([]byte, error) {
	switch j.Spec.Kind {
	case jobqueue.KindExperiment:
		return s.runExperiment(ctx, j)
	case jobqueue.KindProfile:
		return s.runProfile(ctx, j)
	case jobqueue.KindClone:
		return s.runClone(ctx, j)
	}
	return nil, fmt.Errorf("controlapi: unknown job kind %q", j.Spec.Kind)
}

// runExperiment renders one experiments.Run name: the artifact is
// byte-for-byte the CLI's stdout for the same run. Checkpoints are
// namespaced by job ID so concurrent jobs sharing the store never
// interleave, and a resumed job reuses its own finished cells.
func (s *Server) runExperiment(ctx context.Context, j jobqueue.Job) ([]byte, error) {
	opts := experiments.Options{
		Workloads:        j.Spec.Workloads,
		TimingInsts:      j.Spec.Insts,
		Store:            s.cfg.Store,
		Resume:           s.cfg.Store != nil,
		CheckpointPrefix: j.ID + "-",
		Supervisor:       s.super,
		Log:              s.log,
		Progress: func(e experiments.Event) {
			s.cfg.Queue.SetProgress(j.ID, jobqueue.Progress{
				Stage: e.Stage, Cell: e.Cell, Done: e.Done, Total: e.Total,
			})
		},
	}
	var out bytes.Buffer
	if err := experiments.Run(ctx, j.Spec.Run, opts, &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// runProfile collects (or loads from the store) a workload's profile
// and renders the profile JSON.
func (s *Server) runProfile(ctx context.Context, j jobqueue.Job) ([]byte, error) {
	prof, err := s.profileFor(ctx, j.Spec.Workload, j.Spec.Insts)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := prof.Save(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// profileFor is the store-backed profile step shared by profile and
// clone jobs.
func (s *Server) profileFor(ctx context.Context, name string, insts uint64) (*profile.Profile, error) {
	if insts == 0 {
		insts = profile.DefaultMaxInsts
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	p := w.Build()
	prof, _, err := s.cfg.Store.Profile(name, p, insts, func() (*profile.Profile, error) {
		return profile.CollectContext(ctx, p, profile.Options{MaxInsts: insts})
	})
	return prof, err
}

// runClone synthesizes the workload's benchmark clone and renders the C
// source, optionally through the closed fidelity loop.
func (s *Server) runClone(ctx context.Context, j jobqueue.Job) ([]byte, error) {
	prof, err := s.profileFor(ctx, j.Spec.Workload, j.Spec.Insts)
	if err != nil {
		return nil, err
	}
	cfg := synth.Config{Seed: j.Spec.Seed}
	var clone *synth.Clone
	if j.Spec.Validate {
		clone, _, err = fidelity.GenerateContext(ctx, prof, cfg, fidelity.Options{Log: s.log})
	} else {
		clone, err = synth.GenerateContext(ctx, prof, cfg)
	}
	if err != nil {
		return nil, err
	}
	src, err := codegen.EmitC(clone.Program, codegen.Options{FuncName: j.Spec.Workload + "_clone"})
	if err != nil {
		return nil, err
	}
	return []byte(src), nil
}
