package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that no
// non-test code calls and that stay anyway, each with its reason and its
// consumers. A key is "pkg.Func", "pkg.Type.Method" or "pkg.Type.Field". An
// entry whose identifier is no longer declared fails the lint, and so does
// one without a reason: the list cannot outlive what it excuses.
var exportAllowlist = map[string]string{
	// Fixtures and seams that the tests of several packages share.
	"graph.Builder.MustBuild":                "fixture builder: tests in aggindex, core, dataset, fof, graph and landmark",
	"landmark.Set.Vertices":                  "the chosen landmarks: tests in landmark, aggindex and core compare their tables with fresh sweeps",
	"aggindex.Snapshot.MinSummary":           "summary invariant: tests in aggindex and core's social-churn test",
	"aggindex.Snapshot.MaxSummary":           "summary invariant: tests in aggindex and core's social-churn test",
	"gen.NewMigration":                       "drift workload: the migration tests in sub and shard",
	"gen.Migration.Next":                     "drift workload: the migration tests in sub and shard",
	"shard.Engine.Rebalance":                 "forced re-cut: tests in shard and sub",
	"spatial.Rect.Contains":                  "bounds check: tests in spatial, gen and sub keep generated points inside a rectangle",
	"wal.Log.TestingLimitBytes":              "disk-full seam: tests in wal and the root package's durability tests",
	"wal.Log.TestingBeforeCheckpointInstall": "crash-window seam: the root package's checkpoint-recovery tests",
	"wal.Log.Crashed":                        "sticky-failure probe: tests in wal and the root package's durability tests",
	// Public API with no caller in the tree.
	"follower.Follower.Promote": "the failover API README documents; the follower tests drive it",
}

// implicitMethods are method names that callers reach through an interface
// the standard library declares, so no call need name them.
var implicitMethods = map[string]bool{
	"String":    true, // fmt.Stringer
	"Error":     true, // error
	"ServeHTTP": true, // http.Handler
	"Len":       true, // sort.Interface
	"Less":      true, // sort.Interface
	"Swap":      true, // sort.Interface
}

// TestNoUncalledExports fails on any exported function, method or struct
// field declared in a non-test file under internal/ whose name no non-test
// file of the module or of bench/ references. Staticcheck reports unused
// unexported code only; this covers the exported half.
//
// The check is by name, without type information: an identifier counts as
// used when its name appears as an identifier or a selector in any non-test
// file, other than where it is declared. A name shared with live code can
// therefore hide dead code, but live code is never flagged. Code only tests
// use belongs in the package's _test.go files; a fixture that tests in
// several packages share goes on exportAllowlist.
func TestNoUncalledExports(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := goFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make(map[string][]byte, len(paths))
	for _, path := range paths {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(rel, ".") {
			continue // build output such as .bench_build
		}
		if srcs[filepath.ToSlash(rel)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := uncalledExports(srcs, exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Errorf("%d problem(s); delete the export, move it into a _test.go file, or allowlist it with its reason:\n%s",
			len(problems), strings.Join(problems, "\n"))
	}
}

// uncalledExports runs the check over srcs, keyed by slash-separated paths
// relative to the repository root, and returns one line per problem.
func uncalledExports(srcs map[string][]byte, allow map[string]string) ([]string, error) {
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	declared := make(map[string]bool)
	used := make(map[string]bool)

	names := make([]string, 0, len(srcs))
	for name := range srcs {
		if !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		// Names at their declaration are not uses, wherever the file is;
		// only declarations under internal/ are checked.
		declIdents := make(map[*ast.Ident]bool)
		internal := strings.HasPrefix(name, "internal/")
		add := func(id *ast.Ident, key string, method bool) {
			declIdents[id] = true
			if internal && id.IsExported() {
				declared[key] = true
				decls = append(decls, decl{key, id.Name, fset.Position(id.Pos()).String(), method})
			}
		}
		pkg := f.Name.Name
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, pkg+"."+d.Name.Name, false)
				} else {
					add(d.Name, pkg+"."+recvType(d.Recv.List[0].Type)+"."+d.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					switch tt := ts.Type.(type) {
					case *ast.StructType:
						for _, fld := range tt.Fields.List {
							for _, id := range fld.Names {
								add(id, pkg+"."+ts.Name.Name+"."+id.Name, false)
							}
						}
					case *ast.InterfaceType:
						for _, m := range tt.Methods.List {
							for _, id := range m.Names {
								declIdents[id] = true
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var out []string
	for _, d := range decls {
		if used[d.name] || allow[d.key] != "" || (d.method && implicitMethods[d.name]) {
			continue
		}
		out = append(out, fmt.Sprintf("%s: %s has no caller in non-test code", d.pos, d.key))
	}
	for key, reason := range allow {
		switch {
		case !declared[key]:
			out = append(out, fmt.Sprintf("allowlist: %s is not declared in a non-test file under internal/; drop the entry", key))
		case strings.TrimSpace(reason) == "":
			out = append(out, fmt.Sprintf("allowlist: %s gives no reason", key))
		}
	}
	sort.Strings(out)
	return out, nil
}

// recvType names a method's receiver type, without pointer or type
// parameters.
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
	return "?"
}

// TestUncalledExportsFixture runs the checker on a small in-memory tree: it
// must flag exactly the uncalled exported function, method and field, count
// callers in the module's own code, in bench/ and on the allowlist, ignore
// references from _test.go files, and fail an allowlist entry that names
// nothing declared.
func TestUncalledExportsFixture(t *testing.T) {
	srcs := map[string][]byte{
		"internal/p/p.go": []byte(`package p

type T struct {
	Read, Unread int
	Keyed        int
	Bench        int
	hidden       int
}

func Called()           {}
func Dead()             {}
func TestOnly()         {}
func Allowed()          {}
func (T) Used()         {}
func (T) Uncalled()     {}
func (T) String() string { return "" }
func unexported()       {}
`),
		"internal/p/p_test.go": []byte(`package p

func use() { TestOnly(); var t T; t.Uncalled(); _ = t.Unread }
`),
		"cmd/app/main.go": []byte(`package main

import "example/internal/p"

func main() {
	p.Called()
	t := p.T{Keyed: 1}
	t.Used()
	_ = t.Read
}
`),
		"bench/b.go": []byte(`package main

import "example/internal/p"

func bench(t p.T) int { return t.Bench }
`),
	}
	allow := map[string]string{
		"p.Allowed": "fixture reason",
		"p.Gone":    "names nothing",
	}
	got, err := uncalledExports(srcs, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist: p.Gone is not declared in a non-test file under internal/; drop the entry",
		"internal/p/p.go:11:6: p.Dead has no caller in non-test code",
		"internal/p/p.go:12:6: p.TestOnly has no caller in non-test code",
		"internal/p/p.go:15:10: p.T.Uncalled has no caller in non-test code",
		"internal/p/p.go:4:8: p.T.Unread has no caller in non-test code",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	allow["p.Allowed"] = " "
	got, err = uncalledExports(srcs, allow)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(got, "allowlist: p.Allowed gives no reason") {
		t.Fatalf("an allowlist entry without a reason passed:\n%s", strings.Join(got, "\n"))
	}
}
