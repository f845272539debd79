package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptTestOnly names the exported declarations under internal/ that no
// non-test file uses and that stay anyway, each with its reason.
// Keys are pkg.Name, or pkg.Receiver.Name for methods.
var keptTestOnly = map[string]string{
	// Reference implementations tests compare against.
	"kernels.GemmNaive":     "FP32 oracle: the pack tests hold every FP32 pack to it bit for bit",
	"kernels.GemmTileBF16":  "serial oracle of the measured TDPBF16PS rule; every level's BF16 kernels and TMUL itself must match it bit for bit",
	"tensor.DequantizeInt8": "reference inverse of QuantizeInt8 for the kernel and tensor error-bound tests",

	// Engine entry points ROADMAP item 1 names as the real-lane executor.
	"engine.Engine.PrefillResume":    "prefill over an adopted prefix: a radix-cache hit on a real lane",
	"engine.Engine.ForkPagedSession": "copy-on-write fork of real KV pages for shared prefixes",
	"engine.Engine.PrefillChunked":   "Sarathi chunk executor for serve.Plan.PrefillLen",
	"engine.NewSampler":              "constructor of the Sampler GenerateWith takes",

	// Invariant probes: tests read internal state through them.
	"kvpool.Pool.BlockRef":                "reference count of one block, for sharing and conservation checks",
	"govern.Lease.Held":                   "blocks a lease holds, for KV conservation checks",
	"engine.PagedKVCache.AllocatedBlocks": "page accounting: lazy allocation, truncation and fork ownership",
	"engine.PagedKVCache.SharedBlocks":    "fork sharing checked before and after divergence",
	"prefixcache.Tree.Keys":               "tree contents for the recount property test",
	"metrics.Histogram.Quantile":          "gateway tests read batch-size and latency histograms through it",
	"metrics.Histogram.Count":             "gateway tests count latency observations through it",
	"engine.PagedKVCache.Len":             "cache length across prefill, fork, adopt and rejected steps",
	"faults.Injector.Armed":               "the lock-free armed counts (firing plus standing rules), checked against the rule list",

	// Operator actions with no in-repo caller.
	"cluster.Router.RollingRestart": "drain-and-restart drill an operator runs; chaos-tested",

	// Methods the standard library reaches through an anonymous interface.
	"gateway.PanicError.Unwrap": "errors.Is(err, ErrLanePanic) matches a recovered lane panic",
	"api.statusWriter.Unwrap":   "http.ResponseController reaches the underlying writer (SSE flush)",

	"workload.Uniform": "zero value of LengthDist: used by being the default",
}

// TestNoOrphanedExports fails when an exported top-level name (function,
// type, variable or constant) or an exported method declared in a
// non-test file under internal/ is used by no non-test file of this
// module or of bench/. Every package is type-checked (go/types, with the
// standard library read from its export data), so a use is an object,
// not an identifier: a method counts for its own receiver type only, and
// an interface method that non-test code calls through (or that the
// standard library does: fmt.Stringer, json.Marshaler, json.Unmarshaler)
// counts for every type declared here that implements the interface. Exceptions live in
// keptTestOnly; an entry that is gone, or that production code has
// started to use, fails too. It takes about 3 s, most of it loading the
// standard library's export data.
func TestNoOrphanedExports(t *testing.T) {
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		std: importer.Default(), info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		// bench/ is module repro/bench, so every directory's import path
		// is its path under the module root.
		l.dirs[strings.TrimSuffix("repro/"+filepath.ToSlash(path), "/.")] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range l.dirs {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	// Exported package-level names and exported methods under internal/.
	declared := map[types.Object]string{}
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				declared[obj] = pkg.Name() + "." + name
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							declared[m] = pkg.Name() + "." + name + "." + m.Name()
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	var calledThrough []*types.Func // interface methods non-test code calls
	for _, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				calledThrough = append(calledThrough, o)
			}
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	// Interfaces the standard library calls through on values it is handed.
	for _, q := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}} {
		pkg, err := l.Import(q[0])
		if err != nil {
			t.Fatal(err)
		}
		calledThrough = append(calledThrough, pkg.Scope().Lookup(q[1]).Type().Underlying().(*types.Interface).Method(0))
	}
	for _, im := range calledThrough {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for obj := range declared {
			m, ok := obj.(*types.Func)
			if !ok || m.Name() != im.Name() || used[m] {
				continue
			}
			recv := m.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				used[m] = true
			}
		}
	}

	orphans := map[string]bool{}
	for obj, q := range declared {
		if !used[obj] {
			orphans[q] = true
		}
	}
	var unexpected []string
	for q := range orphans {
		if _, ok := keptTestOnly[q]; !ok {
			unexpected = append(unexpected, q)
		}
	}
	sort.Strings(unexpected)
	for _, q := range unexpected {
		t.Errorf("%s is exported but only tests use it: delete it, unexport it, or add it to keptTestOnly with a reason", q)
	}
	for q, reason := range keptTestOnly {
		if reason == "" {
			t.Errorf("keptTestOnly[%q] has no reason", q)
		}
		if !orphans[q] {
			t.Errorf("keptTestOnly[%q] is stale: the name is gone or a non-test file now uses it", q)
		}
	}
}

// loader type-checks the module's packages from source, without their
// tests, and everything else from the standard library's export data.
type loader struct {
	fset *token.FileSet
	dirs map[string]string // import path → directory, for this module and bench/
	pkgs map[string]*types.Package
	std  types.Importer
	info *types.Info // uses across every package checked
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
