package scenario

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Flag returns a flag.Value bound to the spec field with the given JSON
// key, so a CLI override and a POST /jobs option are one field with one
// validation:
//
//	fs.Var(spec.Flag("meshGenerations"), "gens", usage)
//
// A flag never given leaves its field nil (the scenario's default), so
// only explicit flags override. List fields take one comma-separated
// value. Set only parses the syntax; Params does every range and
// vocabulary check. An unknown key panics: it is a programming error.
func (s *ParamsSpec) Flag(key string) flag.Value {
	counts := map[string]**int{
		"ranks": &s.Ranks, "particleRanks": &s.ParticleRanks, "meshGenerations": &s.MeshGenerations,
		"particles": &s.Particles, "steps": &s.Steps, "workers": &s.Workers, "width": &s.Width, "rows": &s.Rows,
	}
	names := map[string]**string{"mode": &s.Mode, "strategy": &s.Strategy, "sgsStrategy": &s.SGSStrategy, "inflow": &s.Inflow}
	if dst, ok := counts[key]; ok {
		return ptrFlag[int]{dst, strconv.Atoi}
	}
	if dst, ok := names[key]; ok {
		return ptrFlag[string]{dst, verbatim}
	}
	switch key {
	case "seed":
		return ptrFlag[int64]{&s.Seed, func(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) }}
	case "dlb":
		return ptrFlag[bool]{&s.DLB, strconv.ParseBool}
	case "platforms":
		return listFlag[string]{&s.Platforms, verbatim}
	case "sweepDiameters":
		return listFlag[float64]{&s.SweepDiameters, parseFloat}
	case "sweepFlows":
		return listFlag[float64]{&s.SweepFlows, parseFloat}
	case "sweepGens":
		return listFlag[int]{&s.SweepGens, strconv.Atoi}
	}
	panic(fmt.Sprintf("scenario: ParamsSpec has no field with JSON key %q", key))
}

func verbatim(v string) (string, error) { return v, nil }

func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }

// ptrFlag sets an optional spec field.
type ptrFlag[T any] struct {
	dst   **T
	parse func(string) (T, error)
}

func (f ptrFlag[T]) Set(v string) error {
	x, err := f.parse(v)
	if err != nil {
		return err
	}
	*f.dst = &x
	return nil
}

func (f ptrFlag[T]) String() string {
	if f.dst == nil || *f.dst == nil {
		return ""
	}
	return fmt.Sprint(**f.dst)
}

// IsBoolFlag lets a bound bool flag stand alone ("-dlb").
func (f ptrFlag[T]) IsBoolFlag() bool {
	_, ok := any(f.dst).(**bool)
	return ok
}

// listFlag sets a list spec field from one comma-separated value.
type listFlag[T any] struct {
	dst   *[]T
	parse func(string) (T, error)
}

func (f listFlag[T]) Set(v string) error {
	var out []T
	for _, item := range strings.Split(v, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		x, err := f.parse(item)
		if err != nil {
			return err
		}
		out = append(out, x)
	}
	*f.dst = out
	return nil
}

func (f listFlag[T]) String() string {
	if f.dst == nil {
		return ""
	}
	items := make([]string, len(*f.dst))
	for i, x := range *f.dst {
		items[i] = fmt.Sprint(x)
	}
	return strings.Join(items, ",")
}
