package analysis

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedCode keeps production code that only tests reach
// from accumulating. It loads every package of the module plus the
// separate perfbench module (non-test files only) and fails on any
// function, method or package-level type declared in the module that no
// non-test file references, outside its own body. A type's own body
// includes its methods: a receiver does not count as a use.
//
// Exempt are main and init, and methods that satisfy an interface
// declared in the module or in a package it imports (the standard
// library): those are reached through dynamic dispatch (fmt.Stringer,
// sort.Interface, policy.DomainOps, ...), which has no static reference.
// Deliberate keepers live in testdata/unreferenced.txt, one
// `symbol  reason` per line; an entry that no longer names an
// unreferenced function is reported as stale, so the list shrinks as
// its code gets a caller or goes away.
//
// This is a test rather than an xnuma-vet analyzer because the
// go vet -vettool protocol checks one package at a time and cannot see
// callers in other packages.
func TestNoUnreferencedCode(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadPackages(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := LoadPackages(filepath.Join(root, "perfbench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	// Objects from other packages resolve through export data and are
	// distinct from the source-built ones, so everything is keyed by
	// the symbol's short name.
	shortPkg := map[string]string{} // import path -> short package name
	owner := map[string]string{}    // short package name -> import path
	for _, pkg := range mod {
		name := pkg.Name
		if name == "main" {
			name = path.Base(pkg.Path)
		}
		if prev, dup := owner[name]; dup {
			t.Fatalf("packages %s and %s share the short name %q; symbols would be ambiguous", prev, pkg.Path, name)
		}
		owner[name] = pkg.Path
		shortPkg[pkg.Path] = name
	}
	symbol := func(fn *types.Func) (string, bool) {
		fn = fn.Origin()
		if fn.Pkg() == nil {
			return "", false
		}
		pkg, ok := shortPkg[fn.Pkg().Path()]
		if !ok {
			return "", false
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return "", false // interface method
			}
			return pkg + "." + named.Obj().Name() + "." + fn.Name(), true
		}
		return pkg + "." + fn.Name(), true
	}
	typeSymbol := func(tn *types.TypeName) (string, bool) {
		if tn.Pkg() == nil || tn.Parent() != tn.Pkg().Scope() {
			return "", false // predeclared, local or a type parameter
		}
		pkg, ok := shortPkg[tn.Pkg().Path()]
		if !ok {
			return "", false
		}
		return pkg + "." + tn.Name(), true
	}
	// receiverType names the type whose method fn is ("" for functions).
	receiverType := func(fn *types.Func) string {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return ""
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			sym, _ := typeSymbol(named.Obj())
			return sym
		}
		return ""
	}

	ifaces := interfaces(mod)

	declared := map[string]string{} // symbol -> declaration position
	for _, pkg := range mod {
		declare := func(sym string, name *ast.Ident) {
			pos := pkg.Fset.Position(name.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = rel
			}
			declared[sym] = pos.String()
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							if sym, ok := typeSymbol(tn); ok {
								declare(sym, ts.Name)
							}
						}
					}
					continue
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if sym, ok := symbol(fn); ok && !satisfiesInterface(fn, ifaces) {
					declare(sym, fd.Name)
				}
			}
		}
	}

	referenced := map[string]bool{}
	for _, pkg := range slices.Concat(mod, bench) {
		// visit records the symbols n uses, except self and selfType:
		// the function or type whose own declaration n is.
		visit := func(n ast.Node, self, selfType string) {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				sym, ok := "", false
				switch obj := pkg.Info.Uses[id].(type) {
				case *types.Func:
					sym, ok = symbol(obj)
				case *types.TypeName:
					sym, ok = typeSymbol(obj)
				}
				if ok && sym != self && sym != selfType {
					referenced[sym] = true
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					self, selfType := "", ""
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						self, _ = symbol(fn)
						selfType = receiverType(fn)
					}
					visit(d, self, selfType)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						selfType := ""
						if ts, ok := spec.(*ast.TypeSpec); ok {
							if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
								selfType, _ = typeSymbol(tn)
							}
						}
						visit(spec, "", selfType)
					}
				}
			}
		}
	}

	keep := readKeepers(t, filepath.Join("testdata", "unreferenced.txt"))
	var dead []string
	for sym := range declared {
		if !referenced[sym] && keep[sym] == "" {
			dead = append(dead, sym)
		}
	}
	sort.Strings(dead)
	for _, sym := range dead {
		t.Errorf("%s: no non-test file references %s; delete it or list it with a reason in testdata/unreferenced.txt",
			declared[sym], sym)
	}
	var stale []string
	for sym := range keep {
		if _, ok := declared[sym]; !ok || referenced[sym] {
			stale = append(stale, sym)
		}
	}
	sort.Strings(stale)
	for _, sym := range stale {
		t.Errorf("testdata/unreferenced.txt: stale entry %s: it is referenced, exempt or gone", sym)
	}
}

// interfaces returns every interface type declared at package level in
// the module's packages and everything they import — the standard
// library, since the module has no other dependencies — plus the
// universe error.
func interfaces(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return out
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type (or a pointer to it) implements one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj == nil {
			continue
		}
		if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
			return true
		}
	}
	return false
}

// readKeepers parses the keeper list: `symbol  reason` per line, blank
// lines and #-comments ignored. A keeper without a reason is a failure.
func readKeepers(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keep := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("%s:%d: keeper %s has no reason", file, line, sym)
			continue
		}
		if _, dup := keep[sym]; dup {
			t.Errorf("%s:%d: duplicate keeper %s", file, line, sym)
		}
		keep[sym] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keep
}
