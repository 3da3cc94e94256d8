//go:build ignore

// Reach lists the functions under internal/ that no binary links, and fails
// unless scripts/reach.allow names exactly those functions.
//
// Run it from the module root:
//
//	go run scripts/reach.go
//
// It builds every main package under cmd/ and examples/, and the perfbench
// module, with inlining off (-gcflags=all=-l) and the linker's dependency
// dump (-ldflags=-dumpdep). Each dump line is an edge "from -> to" of the
// linker's reachability pass. A function declared in a non-test file under
// internal/ is reached when one of its text symbols (an instantiation, a
// method value or a closure it declares) is the target of some edge. Data
// symbols such as ".arginfo1" are ignored: the linker deduplicates them by
// content, so one function's data can hang off another.
//
// Every unreached function is printed on stdout, one per line, as
// "pkg.Func" or "pkg.Type.Method" with pkg relative to internal/. Each must
// have a line in scripts/reach.allow of the form
//
//	<symbol> <role> <needed by>
//
// where role is oracle (a test compares against it), benchmark (a reported
// benchmark number comes from it) or seam (a test reads internal state
// through it), and <needed by> names that test or benchmark. A function
// missing from the allowlist, or an allowlist line for a function that is
// reached or no longer declared, fails the run.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module    = "repro"
	allowFile = "scripts/reach.allow"
)

// dataSyms are the per-function data symbols the compiler emits next to a
// function's text. They are not code, and the linker shares identical ones
// between functions.
var dataSyms = map[string]bool{
	"arginfo0": true, "arginfo1": true, "argliveinfo": true,
	"stkobj": true, "opendefer": true, "args_stackmap": true, "wrapinfo": true,
}

var roles = map[string]bool{"oracle": true, "benchmark": true, "seam": true}

type decl struct {
	pos   token.Position
	lines int
}

func main() {
	decls, err := declared("internal")
	if err != nil {
		fail(err)
	}
	mains, err := output("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...", "./examples/...")
	if err != nil {
		fail(err)
	}
	// Each root is a (module directory, package) pair; perfbench is its own
	// module and alone reaches some engine and cache functions.
	roots := [][2]string{{"perfbench", "."}}
	for _, pkg := range strings.Fields(mains) {
		roots = append(roots, [2]string{".", pkg})
	}
	reached := map[string]bool{}
	for _, r := range roots {
		dump, err := output("go", "-C", r[0], "build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep", r[1])
		if err != nil {
			fail(err)
		}
		markReached(dump, decls, reached)
	}

	var unreached []string
	lines := 0
	for key, d := range decls {
		if !reached[key] {
			unreached = append(unreached, key)
			lines += d.lines
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		fmt.Println(key)
	}
	fmt.Fprintf(os.Stderr, "reach: %d of %d functions (%d lines) under internal/ are linked by no binary\n",
		len(unreached), len(decls), lines)

	allowed, err := readAllow(allowFile)
	if err != nil {
		fail(err)
	}
	bad := false
	for _, key := range unreached {
		if !allowed[key] {
			d := decls[key]
			fmt.Fprintf(os.Stderr, "reach: %s (%s:%d) is reached by no binary and has no line in %s\n",
				key, d.pos.Filename, d.pos.Line, allowFile)
			bad = true
		}
	}
	for key := range allowed {
		if _, ok := decls[key]; !ok {
			fmt.Fprintf(os.Stderr, "reach: %s names %s, which is not declared under internal/\n", allowFile, key)
			bad = true
		} else if reached[key] {
			fmt.Fprintf(os.Stderr, "reach: %s names %s, which a binary reaches\n", allowFile, key)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// declared returns every function declared in a non-test file under root,
// keyed as "pkg.Func" or "pkg.Type.Method" with pkg relative to root.
// Package init functions are left out: they run whenever a binary imports
// the package.
func declared(root string) (map[string]decl, error) {
	fset := token.NewFileSet()
	decls := map[string]decl{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		pkg = filepath.ToSlash(pkg)
		for _, x := range f.Decls {
			fn, ok := x.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls[key] = decl{pos: start, lines: end.Line - start.Line + 1}
		}
		return nil
	})
	return decls, err
}

// recvName is the base type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// markReached marks the declared function behind every edge target in a
// -dumpdep listing.
func markReached(dump string, decls map[string]decl, reached map[string]bool) {
	sc := bufio.NewScanner(strings.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		_, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		pkg, parts, ok := splitSym(to)
		if !ok {
			continue
		}
		// A method "T.M" is tried before a function "F" whose closure is "F.func1".
		key := pkg + "." + parts[0]
		if len(parts) >= 2 {
			if _, ok := decls[key+"."+parts[1]]; ok {
				key += "." + parts[1]
			}
		}
		if _, ok := decls[key]; ok {
			reached[key] = true
		}
	}
}

// splitSym splits a linker symbol of a package under internal/ into that
// package's path relative to internal/ and the dotted name inside it, with
// type arguments ([go.shape.int] …), receiver punctuation ((*T)) and
// method-value or range-body suffixes (-fm, -range1) removed. It reports
// false for symbols of other packages, for compiler-generated package data
// (..dict, ..stmp_0, ..inittask) and for per-function data symbols.
func splitSym(sym string) (pkg string, parts []string, ok bool) {
	sym = stripBrackets(sym)
	rest, ok := strings.CutPrefix(sym, module+"/internal/")
	if !ok {
		return "", nil, false
	}
	slash := strings.LastIndex(rest, "/") + 1
	dot := strings.Index(rest[slash:], ".")
	if dot < 0 {
		return "", nil, false
	}
	pkg, name := rest[:slash+dot], rest[slash+dot+1:]
	if strings.HasPrefix(name, ".") {
		return "", nil, false
	}
	name = strings.NewReplacer("(*", "", ")", "").Replace(name)
	if i := strings.IndexByte(name, '-'); i >= 0 {
		name = name[:i]
	}
	parts = strings.Split(name, ".")
	for _, p := range parts {
		if dataSyms[p] {
			return "", nil, false
		}
	}
	return pkg, parts, true
}

// stripBrackets removes every bracketed type-argument list, nested or not.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllow returns the symbols named by the allowlist. Blank lines and
// lines starting with # are skipped; every other line must give a symbol,
// a known role and what needs it.
func readAllow(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || !roles[f[1]] {
			return nil, fmt.Errorf("%s:%d: want \"<symbol> oracle|benchmark|seam <needed by>\"", path, i+1)
		}
		if allowed[f[0]] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, f[0])
		}
		allowed[f[0]] = true
	}
	return allowed, nil
}

// output runs a go command and returns its combined output; the linker
// writes its dependency dump to stderr.
func output(name string, args ...string) (string, error) {
	var buf bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, buf.String())
	}
	return buf.String(), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reach:", err)
	os.Exit(2)
}
