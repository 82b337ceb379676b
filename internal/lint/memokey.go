package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// analyzerMemoKey enforces the memoization contract on mutex-guarded
// cache maps and the content-hash contract from internal/ir:
//
//   - A memoized term (a method that probes a cache map guarded by a mutex
//     on its receiver struct) must capture in its key struct every
//     receiver/parameter struct field the term's computation reads — a read
//     outside the key silently serves stale entries when that field
//     changes. Key fields whose source reads never appear in the
//     computation are dead weight and flagged too.
//
//   - A content-hash function (func XxxHash(T) uint64) must fold in every
//     field of T — and of T's struct-typed fields — except display Name
//     fields, so two values that differ in any simulation-relevant field
//     can never alias one cache entry.
//
//   - A store-key builder (any function returning store.Key) makes the
//     same promise for every module-internal named-struct parameter it
//     takes: all their fields must fold into the key.
//
// Both checks work on read sets, not field-name matching: the covered set
// is every tracked field read inside the key literal (expanding
// module-internal calls such as cfg.L1BytesPerLane()), and the read set is
// every tracked field read between the cache probe and the cache store,
// expanded through the transitive module-internal call graph. Reads before
// the probe (ablation guards that bypass the cache) and after the store
// (post-processing applied to hits and misses alike) are deliberately
// exempt.
var analyzerMemoKey = &Analyzer{
	Name: "memokey",
	Doc:  "memo-cache keys and content hashes must cover exactly the fields their terms read",
	Run:  runMemoKey,
}

// fieldRef identifies one struct field of one named type.
type fieldRef struct {
	typeName  string // qualified like "perf.Engine"
	fieldName string
}

func (f fieldRef) String() string { return f.typeName + "." + f.fieldName }

// fieldRead is a fieldRef plus the position of one read of it.
type fieldRead struct {
	ref fieldRef
	pos token.Pos
}

func runMemoKey(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil {
				checkMemoMethod(p, fd)
			} else {
				checkHashFunc(p, fd)
			}
		}
	}
}

// ---- memoized-term checking ----

// memoInfra classifies the cache-infrastructure fields of a receiver type:
// the mutex fields and the memo map fields (with their key struct types).
type memoInfra struct {
	recv   *types.Named
	caches map[*types.Var]*types.Named // map field -> key struct named type
	mutexs map[*types.Var]bool
}

// memoInfraOf inspects a receiver named struct for the memoization
// pattern; it returns nil when the type carries no mutex or no
// struct-keyed map field.
func memoInfraOf(named *types.Named, st *types.Struct) *memoInfra {
	infra := &memoInfra{
		recv:   named,
		caches: make(map[*types.Var]*types.Named),
		mutexs: make(map[*types.Var]bool),
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutexType(f.Type()) || isAtomicType(f.Type()) {
			// Atomic hit/miss counters are cache bookkeeping like the
			// mutex: probed alongside the tables, never a model input.
			infra.mutexs[f] = true
			continue
		}
		if m, ok := f.Type().Underlying().(*types.Map); ok {
			if keyNamed, keySt := namedStruct(m.Key()); keyNamed != nil && keySt != nil {
				infra.caches[f] = keyNamed
			}
		}
	}
	if len(infra.mutexs) == 0 || len(infra.caches) == 0 {
		return nil
	}
	return infra
}

func checkMemoMethod(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	recvNamed, recvStruct := recvType(info, fd)
	if recvNamed == nil {
		return
	}
	infra := memoInfraOf(recvNamed, recvStruct)
	if infra == nil {
		return
	}

	// len(cache) reads a table's size, not an entry — size reporting
	// (a Stats method) is not a probe.
	lenArg := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "len" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				for _, a := range call.Args {
					lenArg[a] = true
				}
			}
		}
		return true
	})

	// Cache accesses anchor the memoized compute region.
	var accesses []token.Pos
	keyTypes := make(map[*types.Named]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok || lenArg[se] {
			return true
		}
		sel := info.Selections[se]
		if sel == nil || sel.Kind() != types.FieldVal {
			return true
		}
		if field, ok := sel.Obj().(*types.Var); ok {
			if keyNamed, ok := infra.caches[field]; ok {
				accesses = append(accesses, se.Pos())
				keyTypes[keyNamed] = true
			}
		}
		return true
	})
	if len(accesses) == 0 {
		return // method does not touch a memo cache
	}
	regionStart, regionEnd := accesses[0], accesses[0]
	for _, pos := range accesses[1:] {
		if pos < regionStart {
			regionStart = pos
		}
		if pos > regionEnd {
			regionEnd = pos
		}
	}

	// Tracked types: the receiver plus every named-struct parameter. Reads
	// of their fields are what keys must cover.
	tracked := map[*types.Named]bool{recvNamed: true}
	for _, pf := range fd.Type.Params.List {
		if t, ok := info.Types[pf.Type]; ok {
			if named, st := namedStruct(t.Type); named != nil && st != nil {
				tracked[named] = true
			}
		}
	}

	w := &readWalker{
		prog:    p.Prog,
		tracked: tracked,
		infra:   infra,
		visited: make(map[*types.Func]bool),
	}

	// Covered set: tracked reads inside composite literals of the key
	// type(s) this method uses.
	var keyLits []*ast.CompositeLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if t, ok := info.Types[cl]; ok {
			if named, _ := namedStruct(t.Type); named != nil && keyTypes[named] {
				keyLits = append(keyLits, cl)
			}
		}
		return true
	})
	var covered []fieldRead
	for _, cl := range keyLits {
		w.visited = make(map[*types.Func]bool) // full expansion per literal
		covered = w.collect(cl, p.Pkg, covered)
	}
	if len(keyLits) == 0 {
		// A method that takes the key ready-made as a parameter is a
		// store, not a builder: coverage is enforced on whichever
		// function built the key (checkHashFunc), not here.
		for _, pf := range fd.Type.Params.List {
			if t, ok := info.Types[pf.Type]; ok {
				if named, _ := namedStruct(t.Type); named != nil && keyTypes[named] {
					return
				}
			}
		}
		p.Reportf(fd.Name.Pos(), "method %s probes a memo cache but never builds its key struct; key coverage cannot be verified", fd.Name.Name)
		return
	}

	// Read set: tracked reads positioned inside the probe..store region
	// (key literals excluded), expanded through module-internal callees.
	w.visited = make(map[*types.Func]bool)
	var reads []fieldRead
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		for _, cl := range keyLits {
			if n.Pos() >= cl.Pos() && n.End() <= cl.End() {
				return false
			}
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Pos() >= regionStart && n.Pos() <= regionEnd {
				reads = w.trackedRead(n, p.Pkg, reads)
			}
		case *ast.CallExpr:
			if n.Pos() >= regionStart && n.Pos() <= regionEnd {
				reads = w.expandCall(n, p.Pkg, reads)
			}
		}
		return true
	})

	coveredSet := readSet(covered)
	readsSet := readSet(reads)

	methodName := recvNamed.Obj().Name() + "." + fd.Name.Name
	for _, r := range dedupeSorted(reads) {
		if !coveredSet[r.ref] {
			p.Reportf(r.pos, "%s reads %s, which its memo key does not cover: a change to that field would serve a stale cache entry", methodName, r.ref)
		}
	}
	for _, c := range dedupeSorted(covered) {
		if !readsSet[c.ref] {
			p.Reportf(c.pos, "%s captures %s in its memo key, but the memoized computation never reads it (dead key field)", methodName, c.ref)
		}
	}
}

// recvType resolves a method's receiver named struct.
func recvType(info *types.Info, fd *ast.FuncDecl) (*types.Named, *types.Struct) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil, nil
	}
	t, ok := info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil, nil
	}
	return namedStruct(t.Type)
}

// readSet collapses reads into a membership set.
func readSet(reads []fieldRead) map[fieldRef]bool {
	set := make(map[fieldRef]bool, len(reads))
	for _, r := range reads {
		set[r.ref] = true
	}
	return set
}

// dedupeSorted returns one read per distinct fieldRef (the first by
// position), sorted by type and field name for deterministic reporting.
func dedupeSorted(reads []fieldRead) []fieldRead {
	first := make(map[fieldRef]fieldRead)
	for _, r := range reads {
		if prev, ok := first[r.ref]; !ok || r.pos < prev.pos {
			first[r.ref] = r
		}
	}
	out := make([]fieldRead, 0, len(first))
	for _, r := range first {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].ref.String() < out[j].ref.String()
	})
	return out
}

// readWalker collects reads of tracked struct fields across the
// module-internal call graph.
type readWalker struct {
	prog    *Program
	tracked map[*types.Named]bool
	infra   *memoInfra // may be nil (hash checking)
	visited map[*types.Func]bool
}

// collect walks one syntax tree, recording tracked field reads and
// expanding module-internal calls.
func (w *readWalker) collect(root ast.Node, pkg *Package, acc []fieldRead) []fieldRead {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			acc = w.trackedRead(n, pkg, acc)
		case *ast.CallExpr:
			acc = w.expandCall(n, pkg, acc)
		}
		return true
	})
	return acc
}

// trackedRead records se when it reads a field of a tracked type,
// excluding the memo infrastructure fields themselves.
func (w *readWalker) trackedRead(se *ast.SelectorExpr, pkg *Package, acc []fieldRead) []fieldRead {
	sel := pkg.Info.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		return acc
	}
	field, ok := sel.Obj().(*types.Var)
	if !ok {
		return acc
	}
	if w.infra != nil {
		if w.infra.mutexs[field] {
			return acc
		}
		if _, isCache := w.infra.caches[field]; isCache {
			return acc
		}
	}
	named, _ := namedStruct(sel.Recv())
	if named == nil || !w.tracked[named] {
		return acc
	}
	ref := fieldRef{qualifiedName(named), field.Name()}
	return append(acc, fieldRead{ref: ref, pos: se.Sel.Pos()})
}

// expandCall recurses into a module-internal callee's body, collecting the
// tracked fields it reads (its reads happen whenever the caller runs, so
// they count against the caller's key).
func (w *readWalker) expandCall(call *ast.CallExpr, pkg *Package, acc []fieldRead) []fieldRead {
	fn := calleeOf(pkg.Info, call)
	if fn == nil || w.visited[fn] {
		return acc
	}
	w.visited[fn] = true
	decl, declPkg := w.prog.FuncDecl(fn)
	if decl == nil || decl.Body == nil {
		return acc
	}
	// Positions inside the callee are attributed to the call site so the
	// diagnostic lands in the memoized method the developer is editing.
	callPos := call.Pos()
	before := len(acc)
	acc = w.collect(decl.Body, declPkg, acc)
	for i := before; i < len(acc); i++ {
		acc[i].pos = callPos
	}
	return acc
}

// isStoreKeyType reports whether t is the content-address struct Key of a
// package named store — the result type that marks a function as a
// store-key builder.
func isStoreKeyType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Key" && obj.Pkg() != nil && obj.Pkg().Name() == "store"
}

// qualifiedName renders a named type as pkgname.Type.
func qualifiedName(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// ---- content-hash coverage checking ----

// checkHashFunc verifies that a function promising content addressing
// reads every field of its tracked parameter types (and, recursively, of
// their struct-typed fields), except fields named Name, which are
// display-only by module convention. Two shapes make that promise:
//
//   - a content hash — named *Hash, one named-struct parameter, returning
//     an unsigned integer;
//   - a store-key builder — any function returning a store.Key, tracking
//     every module-internal named-struct parameter it takes.
func checkHashFunc(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	def := info.Defs[fd.Name]
	if def == nil {
		return
	}
	sig, ok := def.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return
	}
	res := sig.Results().At(0).Type()
	hashShaped := false
	if strings.HasSuffix(fd.Name.Name, "Hash") && sig.Params().Len() == 1 {
		if basic, ok := res.Underlying().(*types.Basic); ok && basic.Info()&types.IsUnsigned != 0 {
			hashShaped = true
		}
	}
	if !hashShaped && !isStoreKeyType(res) {
		return
	}

	// Track every module-internal named-struct parameter plus the closure
	// of its struct-typed fields.
	tracked := make(map[*types.Named]bool)
	var add func(named *types.Named, st *types.Struct)
	add = func(named *types.Named, st *types.Struct) {
		if tracked[named] {
			return
		}
		tracked[named] = true
		for i := 0; i < st.NumFields(); i++ {
			if fn, fs := namedStruct(st.Field(i).Type()); fn != nil && fs != nil && p.Prog.inModule(fn.Obj()) {
				add(fn, fs)
			}
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if named, st := namedStruct(sig.Params().At(i).Type()); named != nil && st != nil && p.Prog.inModule(named.Obj()) {
			add(named, st)
		}
	}
	if len(tracked) == 0 {
		return
	}

	w := &readWalker{prog: p.Prog, tracked: tracked, visited: make(map[*types.Func]bool)}
	reads := readSet(w.collect(fd.Body, p.Pkg, nil))

	var missing []string
	for named := range tracked {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "Name" {
				continue // display-only by module convention
			}
			ref := fieldRef{qualifiedName(named), f.Name()}
			if !reads[ref] {
				missing = append(missing, ref.String())
			}
		}
	}
	sort.Strings(missing)
	for _, ref := range missing {
		p.Reportf(fd.Name.Pos(), "%s does not fold in %s: two values differing only there would collide, aliasing cache entries", fd.Name.Name, ref)
	}
}
