// Package integrity is the scrub pass over persisted state: it walks
// checkpoint directories and telemetry stores, validates every file
// against its checksums, and reports per-file verdicts. The same scan
// backs `respirad GET /admin/integrity` (live) and `respira -verify`
// (offline), so an operator sees one vocabulary everywhere:
//
//	ok          — decoded and every checksum matched
//	unsealed    — a telemetry chunk without a seal footer (live or
//	              crashed writer): serves, unverifiable
//	corrupt     — checksum or structural validation failed
//	quarantined — a *.corrupt file left behind by a resume walk
package integrity

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/telemetry"
)

// Verdict is one file's scrub result.
type Verdict struct {
	File   string `json:"file"`   // path relative to the scanned directory
	Kind   string `json:"kind"`   // "checkpoint" or "telemetry"
	Status string `json:"status"` // see the package comment
	Detail string `json:"detail,omitempty"`
}

// Bad reports whether the verdict should fail a scrub: corruption
// found now, or found earlier and quarantined.
func (v Verdict) Bad() bool {
	return v.Status == "corrupt" || v.Status == "quarantined"
}

// AnyBad reports whether any verdict fails the scrub.
func AnyBad(vs []Verdict) bool {
	for _, v := range vs {
		if v.Bad() {
			return true
		}
	}
	return false
}

// ScanCheckpointDir validates every checkpoint generation under dir
// (non-recursively): *.ckpt files and their *.ckpt.N generation chain.
// A missing directory is an empty scan, not an error; per-file read
// problems become verdicts, so one unreadable file cannot hide the
// rest.
func ScanCheckpointDir(dir string) ([]Verdict, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []Verdict
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.Contains(name, ".ckpt") {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			continue // transient atomic-write droppings
		}
		v := Verdict{File: name, Kind: "checkpoint"}
		if strings.HasSuffix(name, ".corrupt") {
			v.Status = "quarantined"
			out = append(out, v)
			continue
		}
		_, err := checkpoint.Load(filepath.Join(dir, name))
		var ce *checkpoint.ErrCorrupt
		switch {
		case errors.As(err, &ce):
			v.Status = "corrupt"
			v.Detail = ce.Error()
		case err != nil:
			v.Status = "corrupt"
			v.Detail = err.Error()
		default:
			v.Status = "ok"
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out, nil
}

// ScanStore scrubs every run of an open telemetry store.
func ScanStore(st *telemetry.Store) ([]Verdict, error) {
	if st == nil {
		return nil, nil
	}
	cvs, err := st.VerifyAll()
	if err != nil {
		return nil, err
	}
	out := make([]Verdict, 0, len(cvs))
	for _, cv := range cvs {
		out = append(out, Verdict{
			File:   cv.Run + "/" + cv.Chunk,
			Kind:   "telemetry",
			Status: cv.Status,
			Detail: cv.Detail,
		})
	}
	return out, nil
}

// ScanTelemetryDir opens the store at dir read-only-in-spirit and
// scrubs it. A missing directory is an empty scan. (OpenDir would
// create the directory; the stat guard keeps a scrub side-effect-free.)
func ScanTelemetryDir(dir string) ([]Verdict, error) {
	if _, err := os.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	st, err := telemetry.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return ScanStore(st)
}

// looksLikeTelemetryRun reports whether dir ent is a telemetry run
// directory (holds meta.json or row chunks).
func looksLikeTelemetryRun(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.Name() == "meta.json" || strings.HasSuffix(e.Name(), ".rows") {
			return true
		}
	}
	return false
}

// ScanDir is the offline entry point (`respira -verify DIR`): it scrubs
// dir as a checkpoint directory and, when its subdirectories look like
// telemetry runs, as a telemetry store too.
func ScanDir(dir string) ([]Verdict, error) {
	out, err := ScanCheckpointDir(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return out, nil
		}
		return nil, err
	}
	telemetryStore := false
	for _, e := range ents {
		if e.IsDir() && looksLikeTelemetryRun(filepath.Join(dir, e.Name())) {
			telemetryStore = true
			break
		}
	}
	if telemetryStore {
		tvs, err := ScanTelemetryDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, tvs...)
	}
	return out, nil
}
