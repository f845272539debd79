package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptTestOnly names the exported declarations under internal/ that no
// non-test file mentions and that stay anyway, each with its reason.
// Keys are pkg.Name, or pkg.Receiver.Name for methods.
var keptTestOnly = map[string]string{
	// Reference implementations tests compare against.
	"kernels.GemmTileBF16":  "serial oracle of the measured TDPBF16PS rule; every level's BF16 kernels and TMUL itself must match it bit for bit",
	"tensor.DequantizeInt8": "reference inverse of QuantizeInt8 for the kernel and tensor error-bound tests",

	// Engine entry points ROADMAP item 1 names as the real-lane executor.
	"engine.Engine.PrefillResume":    "prefill over an adopted prefix: a radix-cache hit on a real lane",
	"engine.Engine.ForkPagedSession": "copy-on-write fork of real KV pages for shared prefixes",
	"engine.Engine.PrefillChunked":   "Sarathi chunk executor for serve.Plan.PrefillLen",
	"engine.NewSampler":              "constructor of the Sampler GenerateWith takes",

	// Invariant probes: tests read internal state through them.
	"kvpool.Pool.BlockRef":                "reference count of one block, for CoW and conservation checks",
	"kvpool.Sequence.WriteLast":           "the write that triggers copy-on-write in the sharing tests",
	"govern.Lease.Held":                   "blocks a lease holds, for KV conservation checks",
	"engine.PagedKVCache.AllocatedBlocks": "page accounting: lazy allocation, truncation and fork ownership",
	"engine.PagedKVCache.SharedBlocks":    "fork sharing checked before and after divergence",
	"prefixcache.Tree.Keys":               "tree contents for the recount property test",
	"metrics.Histogram.Quantile":          "gateway tests read batch-size and latency histograms through it",

	// Operator actions with no in-repo caller.
	"cluster.Router.RollingRestart": "drain-and-restart drill an operator runs; chaos-tested",

	// Methods that exist to satisfy an interface.
	"trace.Span.MarshalJSON":     "json.Marshaler: merges typed attributes into the wire format",
	"faults.Class.MarshalJSON":   "json.Marshaler for the /v1/admin/faults wire format",
	"faults.Class.UnmarshalJSON": "json.Unmarshaler for the /v1/admin/faults wire format",
	"gateway.PanicError.Unwrap":  "errors.Is(err, ErrLanePanic) matches a recovered lane panic",
	"api.statusWriter.Unwrap":    "http.ResponseController reaches the underlying writer (SSE flush)",

	"workload.Uniform": "zero value of LengthDist: used by being the default",
}

// TestNoOrphanedExports fails when an exported top-level name (function,
// method, type, variable or constant) declared in a non-test file under
// internal/ is mentioned by no non-test file of this module or of bench/
// other than by its own declaration. Matching is by identifier name only,
// so it can miss an orphan whose name is used elsewhere for something
// else, and never flags a name that is used. Exceptions live in
// keptTestOnly; an entry that is gone, or that production code has started
// to use, fails too.
func TestNoOrphanedExports(t *testing.T) {
	fset := token.NewFileSet()
	mentions := map[string]int{}      // identifier name -> occurrences in non-test files
	declared := map[string][]string{} // identifier name -> qualified declarations under internal/

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := f.Name.Name
		add := func(id *ast.Ident, recv string) {
			if !id.IsExported() {
				return
			}
			q := pkg + "." + id.Name
			if recv != "" {
				q = pkg + "." + recv + "." + id.Name
			}
			declared[id.Name] = append(declared[id.Name], q)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = receiverName(d.Recv.List[0].Type)
				}
				add(d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	orphans := map[string]bool{}
	for name, decls := range declared {
		if mentions[name] > len(decls) {
			continue
		}
		for _, q := range decls {
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
		t.Errorf("%s is exported but only tests mention it: delete it, unexport it, or add it to keptTestOnly with a reason", q)
	}
	for q, reason := range keptTestOnly {
		if reason == "" {
			t.Errorf("keptTestOnly[%q] has no reason", q)
		}
		if !orphans[q] {
			t.Errorf("keptTestOnly[%q] is stale: the name is gone or a non-test file now mentions it", q)
		}
	}
}

// receiverName returns the type name of a method receiver (T, *T, T[P]).
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
