package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// analyzerLockGuard enforces the concurrency contract on cache structs
// (the point store's shards and anything shaped like them, generic or
// not): a struct that pairs a sync mutex with struct-keyed map fields
// promises that every read of those maps happens under the mutex (read or
// write lock) and every write under the write lock. The check is linear
// over each function body: mutex Lock/RLock/Unlock/RUnlock calls and
// guarded-field accesses are ordered by source position and the lock
// state is replayed across them — the shape of a lock, a map access and
// a deferred or explicit unlock that the store's Get and Put use. A deferred call
// counts at the end of the function body it is deferred in. It also flags
// function signatures that copy a mutex-bearing struct by value (receiver
// or parameter), which would fork the lock from the state it guards.
var analyzerLockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "memo-cache map fields must be accessed under their struct's mutex; mutex-bearing structs must not be copied",
	Run:  runLockGuard,
}

func runLockGuard(p *Pass) {
	// Collect the guarded structs declared in this package.
	guarded := make(map[*types.Named]*memoInfra)
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, st := namedStruct(tn.Type())
		if named == nil {
			continue
		}
		if infra := memoInfraOf(named, st); infra != nil {
			guarded[named] = infra
		}
	}

	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCopiedLocks(p, fd)
			if fd.Body != nil && len(guarded) > 0 {
				checkGuardedAccesses(p, fd, guarded)
			}
		}
	}
}

// lockEvent is one mutex transition or guarded access, ordered by source
// position within one function body.
type lockEvent struct {
	pos token.Pos
	// kind: "Lock", "RLock", "Unlock", "RUnlock" for transitions;
	// "read" / "write" for guarded accesses.
	kind  string
	field string // guarded accesses: Type.field label
}

func checkGuardedAccesses(p *Pass, fd *ast.FuncDecl, guarded map[*types.Named]*memoInfra) {
	info := p.Pkg.Info
	var events []lockEvent

	// Writes are guarded-field selectors used as assignment targets
	// (e.cache[k] = v, e.cache = make(...)); collect those roots first.
	writeRoots := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			switch l := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				writeRoots[l] = true
			case *ast.IndexExpr:
				if se, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok {
					writeRoots[se] = true
				}
			}
		}
		return true
	})

	// A deferred call runs when its function returns, so its lock
	// transition is replayed at the end of that function's body.
	deferredAt := make(map[*ast.CallExpr]token.Pos)
	var collectDefers func(body *ast.BlockStmt)
	collectDefers = func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				collectDefers(n.Body)
				return false
			case *ast.DeferStmt:
				deferredAt[n.Call] = body.End()
			}
			return true
		})
	}
	collectDefers(fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			named, infra, field := guardedField(sel, guarded)
			if infra == nil {
				return true
			}
			if _, isCache := infra.caches[field]; !isCache {
				return true
			}
			kind := "read"
			if writeRoots[n] {
				kind = "write"
			}
			events = append(events, lockEvent{pos: n.Pos(), kind: kind,
				field: named.Obj().Name() + "." + field.Name()})
		case *ast.CallExpr:
			// recv.mu.Lock() and friends, where mu is a mutex field of a
			// guarded struct.
			se, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			method := se.Sel.Name
			switch method {
			case "Lock", "RLock", "Unlock", "RUnlock":
			default:
				return true
			}
			inner, ok := ast.Unparen(se.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel := info.Selections[inner]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			if _, infra, field := guardedField(sel, guarded); infra != nil && infra.mutexs[field] {
				pos, deferred := deferredAt[n]
				if !deferred {
					pos = n.Pos()
				}
				events = append(events, lockEvent{pos: pos, kind: method})
			}
		}
		return true
	})

	if len(events) == 0 {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := "" // "", "R", or "W"
	for _, ev := range events {
		switch ev.kind {
		case "Lock":
			held = "W"
		case "RLock":
			held = "R"
		case "Unlock", "RUnlock":
			held = ""
		case "read":
			if held == "" {
				p.Reportf(ev.pos, "read of guarded cache field %s outside its mutex; take RLock first", ev.field)
			}
		case "write":
			if held != "W" {
				p.Reportf(ev.pos, "write to guarded cache field %s without the write lock; take Lock first", ev.field)
			}
		}
	}
}

// guardedField resolves a field selection on a guarded struct to the
// struct, its infrastructure and the declared field. Inside a generic
// type's methods the receiver and its fields are instantiations, so both
// are normalised to their declarations first. infra is nil when the
// selection is not on a guarded struct.
func guardedField(sel *types.Selection, guarded map[*types.Named]*memoInfra) (*types.Named, *memoInfra, *types.Var) {
	named, _ := namedStruct(sel.Recv())
	field, ok := sel.Obj().(*types.Var)
	if named == nil || !ok {
		return nil, nil, nil
	}
	named = named.Origin()
	return named, guarded[named], field.Origin()
}

// checkCopiedLocks flags receivers and parameters that copy a
// mutex-bearing struct by value, forking the lock from its state.
func checkCopiedLocks(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	check := func(fl *ast.Field, what string) {
		t, ok := info.Types[fl.Type]
		if !ok {
			return
		}
		if _, isPtr := t.Type.(*types.Pointer); isPtr {
			return
		}
		if containsMutex(t.Type, nil) {
			p.Reportf(fl.Type.Pos(), "%s of %s copies a mutex-bearing struct by value; use a pointer", what, fd.Name.Name)
		}
	}
	if fd.Recv != nil {
		for _, fl := range fd.Recv.List {
			check(fl, "value receiver")
		}
	}
	if fd.Type.Params != nil {
		for _, fl := range fd.Type.Params.List {
			check(fl, "parameter")
		}
	}
}
