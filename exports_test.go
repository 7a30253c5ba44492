package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exports that may go without a non-test
// caller, each with the reason it stays: a reference implementation
// tests compare against (oracle), a check tests run (check), the alloc
// pins' runtime warm-up (pin), a scenario option (option), the root
// package's documented entry point (entry), or a method a stdlib
// interface calls (interface). An entry that gains a caller must leave
// the list.
var exportAllowlist = map[string]string{
	"RunSimulation":                             "entry",
	"internal/fem.DivergenceRHS":                "oracle",
	"internal/fem.LaplacianElement":             "oracle",
	"internal/graph.CSR.Components":             "oracle",
	"internal/graph.CSR.Validate":               "check",
	"internal/graph.Coloring.Verify":            "check",
	"internal/graph.GreedyColoring":             "oracle",
	"internal/la.Norm2":                         "oracle",
	"internal/mesh.Mesh.BoundaryFaces":          "oracle",
	"internal/mesh.Mesh.Centroid":               "oracle",
	"internal/mesh.Mesh.Validate":               "check",
	"internal/particles.DragForce":              "oracle",
	"internal/particles.GanserCd":               "oracle",
	"internal/particles.NewmarkStep":            "oracle",
	"internal/particles.ParticleStore.CopyFrom": "oracle",
	"internal/particles.ReynoldsP":              "oracle",
	"internal/particles.StokesSettlingVelocity": "oracle",
	"internal/particles.Tracker.InjectAtInlet":  "oracle",
	"internal/particles.Tracker.TakeLost":       "oracle",
	"internal/partition.Partition.Validate":     "check",
	"internal/partition.ValidateRankMeshes":     "check",
	"internal/perfmodel.DLBResult.Speedup":      "check",
	"internal/perfmodel.eventHeap.Less":         "interface",
	"internal/perfmodel.eventHeap.Swap":         "interface",
	"internal/perfmodel.readyHeap.Less":         "interface",
	"internal/perfmodel.readyHeap.Swap":         "interface",
	"internal/telemetry.WithChunkRows":          "option",
	"internal/warmrt.Scheduler":                 "pin",
	"scenario.WithDLB":                          "option",
	"scenario.WithInflow":                       "option",
	"scenario.WithMode":                         "option",
	"scenario.WithParticleRanks":                "option",
	"scenario.WithPlatforms":                    "option",
	"scenario.WithSGSStrategy":                  "option",
	"scenario.WithStrategy":                     "option",
	"scenario.WithSweepDiameters":               "option",
	"scenario.WithSweepFlows":                   "option",
	"scenario.WithSweepGens":                    "option",
	"scenario.WithTimeline":                     "option",
	"scenario.ptrFlag.IsBoolFlag":               "interface",
}

// TestEveryExportHasACaller fails when an exported name declared under
// internal/, scenario/ or the root package is referenced by no non-test
// Go file in the tree (cmd/, examples/ and the benchmark module
// included) other than by its own declaration, unless exportAllowlist
// names it. Package-level names must be referenced from their own
// package or through a selector on an import of it; a method counts as
// called when any non-test file selects its name, since the scan
// resolves no types.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir string // module-relative directory
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := func(dir string) bool {
		return dir == "." || dir == "scenario" || strings.HasPrefix(dir, "internal/")
	}
	// declared maps each checked export's key to its declaring identifier;
	// pkgRefs counts uses of a package-level name as "dir.Name" and
	// methodRefs counts selections of a method name anywhere.
	declared := map[string]*ast.Ident{}
	methods := map[string]string{} // method key -> method name
	pkgRefs := map[string]int{}
	methodRefs := map[string]int{}
	key := func(dir, name string) string {
		if dir == "." {
			return name
		}
		return dir + "." + name
	}
	for _, fl := range files {
		if !checked(fl.dir) {
			continue
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					declared[key(fl.dir, d.Name.Name)] = d.Name
					continue
				}
				k := key(fl.dir, recvType(d.Recv.List[0].Type)+"."+d.Name.Name)
				declared[k] = d.Name
				methods[k] = d.Name.Name
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							declared[key(fl.dir, s.Name.Name)] = s.Name
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								declared[key(fl.dir, n.Name)] = n
							}
						}
					}
				}
			}
		}
	}
	decl := map[*ast.Ident]bool{}
	for _, id := range declared {
		decl[id] = true
	}
	for _, fl := range files {
		imports := map[string]string{} // local name -> module-relative dir
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != "repro" && !strings.HasPrefix(p, "repro/") {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(p, "repro"), "/")
			if dir == "" {
				dir = "."
			}
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name]++
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						pkgRefs[key(dir, n.Sel.Name)]++
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !decl[n] {
					pkgRefs[key(fl.dir, n.Name)]++
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	var bad []string
	for k, id := range declared {
		m, isMethod := methods[k]
		called := pkgRefs[k] > 0 || isMethod && methodRefs[m] > 0
		_, allowed := exportAllowlist[k]
		switch {
		case !called && !allowed:
			bad = append(bad, "export with no non-test caller: "+k+" ("+fset.Position(id.Pos()).String()+")")
		case called && allowed:
			bad = append(bad, "allowlisted export has a caller, drop it from the list: "+k)
		}
	}
	for k := range exportAllowlist {
		if declared[k] == nil {
			bad = append(bad, "allowlisted export is not declared: "+k)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// recvType returns the type name of a method receiver, without pointer
// or type parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
