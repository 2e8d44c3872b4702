package pico_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// standardMethods are methods a standard interface calls by name (error,
// fmt.Stringer, errors.Is/Unwrap, encoding/json, net.Conn), so a type
// implementing one has a caller no identifier shows.
var standardMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// testOnlyExports are the exported names under internal/ that only tests
// use, each kept for the reason given. A name that gains a caller outside
// tests, or stops being declared, must leave this list.
var testOnlyExports = map[string]string{
	"cluster.Cluster.Homogenize":         "Eq. 12's averaged cluster D', shown on the facade by ExampleCluster_Homogenize",
	"nn.Model.SegmentFLOPs":              "reference FLOP count partition's strip and grid tests check tiles against",
	"nn.TinyGraph":                       "fixture graph CNN the core, partition, tensor and runtime tests build",
	"nn.TinySeparable":                   "fixture depthwise model the partition, tensor and runtime tests build",
	"partition.Calc.PathRects":           "the path form of SegmentRects, the grid tests' reference for one block path",
	"partition.Calc.SegmentRanges":       "row reference the tensor and runtime tests check TileRects against",
	"partition.Calc.SegmentRects":        "rect reference the tensor and grid tests check TileRects against",
	"partition.Proportional":             "cuts the weighted strips tensor's bit-identity tests run",
	"queueing.MD1Sojourn":                "closed-form M/D/1 sojourn the queueing and simulator tests check against",
	"queueing.Switcher.Current":          "the incumbent schemes' APICO tests read back",
	"runtime.WithFault":                  "fault seam the runtime and serve chaos tests inject worker faults through",
	"serve.Gateway.Addr":                 "the picoserve smoke tests reach the gateway's ephemeral port through it",
	"serve.Gateway.CheckSLO":             "hand tick the telemetry tests drive instead of the watcher's period",
	"tensor.EqualQ":                      "int8 bit-identity comparator the tensor and runtime tests share",
	"tensor.Tensor.At":                   "element accessor the tensor tests' direct-loop reference convolutions index by",
	"tensor.Tensor.Set":                  "element setter the tensor tests' direct-loop reference ops write their outputs through",
	"tensor.WithReferenceKernels":        "plain-Go reference kernels the bit-identity suites compare against",
	"wire.DecodeQTensorPortable":         "portable reference the fast int8 decoder is checked against",
	"wire.DecodeTensorPortable":          "portable reference the fast float decoder is checked against",
	"wire.EncodeQTensorPortable":         "portable reference the fast int8 encoder is checked against",
	"wire.FlakyOptions.CloseAfterWrites": "fault seam: the chaos tests sever a connection",
	"wire.FlakyOptions.Delay":            "fault seam: the chaos tests delay writes",
	"wire.FlakyOptions.DelayProb":        "fault seam: the chaos tests delay writes",
	"wire.FlakyOptions.DropAfterWrites":  "fault seam: the chaos tests blackhole a connection",
}

// TestEveryExportHasACaller fails on an exported function or method under
// internal/, or a field of an exported *Options/*Config struct, that no
// non-test file uses. Every package of the repository (bench's module
// included) is type-checked, so a function or method is used where an
// identifier resolves to it — a call, a method value or a method expression —
// and a name shared with a field, a type or another type's method does not
// count. A method is also used when an interface it satisfies has that method
// called. An option
// field is used when a composite literal sets it, or code outside its own
// package assigns it or takes its address: a field only its own package's
// defaulting assigns holds one value, a constant in disguise.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var exports []export
	files := map[string][]*ast.File{}       // import path -> non-test files
	setFrom := map[string]map[string]bool{} // field name -> dirs that set it ("" for a literal)
	setField := func(name, dir string) {
		if setFrom[name] == nil {
			setFrom[name] = map[string]bool{}
		}
		setFrom[name][dir] = true
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := "pico"
		if dir != "." {
			importPath += "/" + filepath.ToSlash(dir)
		}
		files[importPath] = append(files[importPath], f)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			exports = append(exports, fileExports(f, dir)...)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					setField(id.Name, "")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						setField(sel.Sel.Name, dir)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					setField(sel.Sel.Name, dir)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					setField(sel.Sel.Name, dir)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := typeCheck(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	called := map[*types.Func]bool{}
	viaInterface := map[string][]*types.Interface{} // method name -> interfaces it is called through
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			viaInterface[fn.Name()] = append(viaInterface[fn.Name()], recv.Type().Underlying().(*types.Interface))
			continue
		}
		called[fn.Origin()] = true
	}

	var dead []string
	seen := map[string]bool{}
	for _, e := range exports {
		seen[e.key] = true
		var used bool
		if e.field {
			for d := range setFrom[e.name] {
				used = used || d != e.dir
			}
		} else {
			used = isUsed(info.Defs[e.decl].(*types.Func), called, viaInterface)
		}
		_, allowed := testOnlyExports[e.key]
		switch {
		case !used && !allowed:
			dead = append(dead, e.key+": no caller outside tests")
		case used && allowed:
			dead = append(dead, e.key+": has a caller now, drop it from testOnlyExports")
		}
	}
	for key := range testOnlyExports {
		if !seen[key] {
			dead = append(dead, key+": not declared any more, drop it from testOnlyExports")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// isUsed reports whether fn is called or taken as a value, directly or, for a
// method, through an interface its receiver type satisfies.
func isUsed(fn *types.Func, called map[*types.Func]bool, viaInterface map[string][]*types.Interface) bool {
	if called[fn] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	base := recv.Type()
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	for _, iface := range viaInterface[fn.Name()] {
		if types.Implements(base, iface) || types.Implements(types.NewPointer(base), iface) {
			return true
		}
	}
	return false
}

// typeCheck type-checks every package in files, keyed by import path,
// importing the standard library from the export data `go list -export`
// reports, and returns what the identifiers of all of them resolve to.
func typeCheck(fset *token.FileSet, files map[string][]*ast.File) (*types.Info, error) {
	std := map[string]bool{}
	for _, fs := range files {
		for _, f := range fs {
			for _, spec := range f.Imports {
				if path, _ := strconv.Unquote(spec.Path.Value); files[path] == nil {
					std[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exportFile := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exportFile[path] = file
		}
	}
	m := &moduleImporter{
		fset:  fset,
		files: files,
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exportFile[path])
		}),
	}
	for path := range files {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}
	return m.info, nil
}

// moduleImporter type-checks the module's packages from source, each once,
// and hands the standard library to std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if m.files[path] == nil {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, m.files[path], m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// export is one exported name; key is package.Name or package.Type.Name,
// decl a function's or method's declared name (nil for a field).
type export struct {
	key, name, dir string
	field          bool
	decl           *ast.Ident
}

// fileExports returns the exported funcs and methods f declares and the
// exported fields of its exported *Options/*Config structs.
func fileExports(f *ast.File, dir string) []export {
	var exports []export
	pkg := f.Name.Name
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() || (decl.Recv != nil && standardMethods[decl.Name.Name]) {
				continue
			}
			key := pkg + "." + decl.Name.Name
			if decl.Recv != nil {
				key = pkg + "." + receiverName(decl.Recv.List[0].Type) + "." + decl.Name.Name
			}
			exports = append(exports, export{key: key, name: decl.Name.Name, dir: dir, decl: decl.Name})
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							exports = append(exports, export{key: pkg + "." + ts.Name.Name + "." + id.Name, name: id.Name, dir: dir, field: true})
						}
					}
				}
			}
		}
	}
	return exports
}

// receiverName is the type name of a method receiver, without pointer or
// type parameters.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
