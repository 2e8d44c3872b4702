package pico_test

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
	"serve.Gateway.CheckSLO":             "hand tick the telemetry tests drive instead of the watcher's period",
	"tensor.EqualQ":                      "int8 bit-identity comparator the tensor and runtime tests share",
	"tensor.Tensor.At":                   "element accessor the tensor tests' direct-loop reference convolutions index by",
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
// non-test file of the module uses. A function or method is used when its
// name appears as an identifier anywhere but its declaration. An option field
// is used when a composite literal sets it, or code outside its own package
// assigns it or takes its address: a field only its own package's defaulting
// assigns holds one value, a constant in disguise. Names are matched without
// type information, so a dead name shadowed by a live one of the same
// spelling is missed, but a live name is never reported.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var exports []export
	declared := map[*ast.Ident]bool{}
	named := map[string]bool{}              // identifier names outside declarations
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
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			exports = append(exports, fileExports(f, dir, declared)...)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					named[n.Name] = true
				}
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

	var dead []string
	seen := map[string]bool{}
	for _, e := range exports {
		seen[e.key] = true
		used := named[e.name]
		if e.field {
			used = false
			for d := range setFrom[e.name] {
				used = used || d != e.dir
			}
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

// export is one exported name; key is package.Name or package.Type.Name.
type export struct {
	key, name, dir string
	field          bool
}

// fileExports returns the exported funcs and methods f declares, marking
// their names in declared, and the exported fields of its exported
// *Options/*Config structs.
func fileExports(f *ast.File, dir string, declared map[*ast.Ident]bool) []export {
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
			declared[decl.Name] = true
			exports = append(exports, export{key: key, name: decl.Name.Name, dir: dir})
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
