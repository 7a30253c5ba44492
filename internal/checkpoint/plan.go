package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fsutil"
)

// Plan tells a run whether and where to checkpoint. It travels on
// coupling.RunConfig or, for service-submitted jobs, comes from the
// Provider in the context's coupling.Env, next to the telemetry sink
// and the watchdog.
type Plan struct {
	// Every checkpoints after each multiple of Every completed steps
	// (at the step boundary, off the hot path). <= 0 disables capture.
	Every int
	// Path is the snapshot file; writes go to Path+".tmp" then rename.
	Path string
	// Resume attempts to restore from Path before the first step. A
	// missing or mismatched snapshot silently starts fresh.
	Resume bool
	// Keep is how many snapshot generations to retain. Write rotates
	// Path -> Path+".1" -> Path+".2" ... before saving, so a corrupt
	// newest generation costs one checkpoint interval, not the run.
	// Keep <= 1 keeps only Path (the pre-chain behavior).
	Keep int
	// OnError, if set, observes capture/restore problems. Checkpointing
	// is best-effort by design: a failed capture never fails the run.
	OnError func(error)
}

// maxScan bounds how many generation slots LoadResume probes. Rotation
// never writes past Keep-1, but quarantine renames can leave gaps, so
// the walk tolerates holes up to this fixed horizon.
const maxScan = 16

// GenPath names generation g of a checkpoint chain: generation 0 is
// path itself, generation g > 0 is path+".g". The suffix goes after the
// ".ckpt" extension (job.ckpt, job.ckpt.1, ...) so generations cannot
// collide with DirProvider's per-run numbering (job.2.ckpt is run 2's
// newest, not run 1's previous generation).
func GenPath(path string, g int) string {
	if g <= 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, g)
}

// Quarantine renames a corrupt state file to <path>.corrupt (replacing
// any previous quarantine of the same path) and fsyncs the parent
// directory. Keeping the bytes preserves operator evidence; renaming
// takes the file out of every future resume walk and cleanup glob.
func Quarantine(path string) error {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return err
	}
	return fsutil.SyncDir(filepath.Dir(path))
}

// Write saves snap as the newest generation of the plan's chain. With
// Keep > 1 it first rotates existing generations one slot down
// (dropping the oldest), then saves to Path; the save itself is atomic,
// so a crash mid-rotation at worst loses old generations, never the
// data being written.
func (p *Plan) Write(snap *Snapshot) error {
	if p.Keep > 1 {
		for g := p.Keep - 2; g >= 0; g-- {
			from, to := GenPath(p.Path, g), GenPath(p.Path, g+1)
			if err := os.Rename(from, to); err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return err
			}
		}
		if err := fsutil.SyncDir(filepath.Dir(p.Path)); err != nil {
			return err
		}
	}
	return snap.Save(p.Path)
}

// LoadResume walks the generation chain newest-first and returns the
// first snapshot that decodes cleanly, carries fingerprint, and has
// wantRanks ranks. Corrupt generations are quarantined (renamed
// *.corrupt) in place; mismatched ones are left alone (a config change
// is not corruption). Every skipped generation is reported via OnError.
// Returns nil when no generation is usable — the caller starts fresh,
// exactly as with a missing checkpoint.
func (p *Plan) LoadResume(fingerprint string, wantRanks int) *Snapshot {
	for g := 0; g < maxScan; g++ {
		path := GenPath(p.Path, g)
		s, err := LoadMatching(path, fingerprint)
		if err == nil && s == nil {
			continue // missing generation (gap or end of chain)
		}
		if err != nil {
			var ce *ErrCorrupt
			if errors.As(err, &ce) {
				p.Report(err)
				if qerr := Quarantine(path); qerr != nil {
					p.Report(fmt.Errorf("checkpoint: quarantine %s: %w", path, qerr))
				}
				continue
			}
			p.Report(err) // ErrMismatch or I/O: skip, do not quarantine
			continue
		}
		if len(s.Ranks) != wantRanks {
			p.Report(fmt.Errorf("checkpoint: %s has %d ranks, run has %d: skipping generation", path, len(s.Ranks), wantRanks))
			continue
		}
		return s
	}
	return nil
}

// Report forwards err to OnError when both are non-nil.
func (p *Plan) Report(err error) {
	if p != nil && p.OnError != nil && err != nil {
		p.OnError(err)
	}
}

// Provider hands out one Plan per simulation run. A job that executes
// several runs (calibration probe + measured run, sweep points) gets a
// distinct checkpoint file per run, in execution order — deterministic,
// so a resumed job re-requests the same sequence.
type Provider interface {
	NextPlan() *Plan
}

// DirProvider numbers checkpoint files under a directory, naming them
// <base>.ckpt, <base>.2.ckpt, ... — the same suffix scheme the service
// telemetry sink uses for a job's runs, so run N's telemetry and
// checkpoint correlate by name.
type DirProvider struct {
	Dir     string
	Base    string
	Every   int
	Keep    int
	OnError func(error)

	mu sync.Mutex
	n  int
}

// NextPlan returns the plan for the job's next run.
func (p *DirProvider) NextPlan() *Plan {
	p.mu.Lock()
	p.n++
	n := p.n
	p.mu.Unlock()
	name := p.Base
	if n > 1 {
		name = fmt.Sprintf("%s.%d", p.Base, n)
	}
	return &Plan{
		Every:   p.Every,
		Path:    filepath.Join(p.Dir, name+".ckpt"),
		Resume:  true,
		Keep:    p.Keep,
		OnError: p.OnError,
	}
}
