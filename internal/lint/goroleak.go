package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerGoroLeak enforces the goroutine-lifecycle contract: every `go`
// statement in non-test code must be joined or bounded. A goroutine
// qualifies when its body (or a module-internal function it calls)
// reachably contains one of:
//
//   - a sync.WaitGroup Done or Wait — some owner joins it;
//   - a channel send, receive, or close — it rendezvouses with a peer
//     that can unblock or drain it (the server queue's done-channel
//     pattern);
//   - a select or receive on ctx.Done() — context cancellation bounds it;
//   - a range over a channel — closing the channel retires it (the dse
//     worker pool).
//
// Reachability is judged on the CFG of the launched body, so a join
// signal parked behind an early return does not count. A goroutine whose
// body the analyzer cannot see into (an external function value) is
// flagged too: if the launch is deliberate, the //lint:ignore reason is
// where its lifecycle story belongs.
var analyzerGoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every launched goroutine must be joined (WaitGroup, channel) or bounded by context cancellation",
	Run:  runGoroLeak,
}

func runGoroLeak(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(p, gs)
				}
				return true
			})
		}
	}
}

func checkGoStmt(p *Pass, gs *ast.GoStmt) {
	w := &joinWalker{prog: p.Prog, visited: make(map[*types.Func]bool)}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		if !w.bodyJoins(fun.Body, p.Pkg) {
			p.Reportf(gs.Pos(), "goroutine is neither joined (WaitGroup, channel) nor bounded by context cancellation on any reachable path")
		}
	default:
		fn := calleeOf(p.Pkg.Info, gs.Call)
		if fn != nil && isJoinMethod(fn) {
			return // go wg.Wait() style: the launch IS the join
		}
		if fn == nil || !p.Prog.inModule(fn) {
			p.Reportf(gs.Pos(), "goroutine launches a function the analyzer cannot inspect; its join or cancellation bound must be stated in a //lint:ignore reason")
			return
		}
		decl, declPkg := p.Prog.FuncDecl(fn)
		if decl == nil || decl.Body == nil {
			p.Reportf(gs.Pos(), "goroutine launches %s, whose body is unavailable for join analysis", fn.Name())
			return
		}
		w.visited[fn] = true
		if !w.bodyJoins(decl.Body, declPkg) {
			p.Reportf(gs.Pos(), "goroutine running %s is neither joined (WaitGroup, channel) nor bounded by context cancellation on any reachable path", fn.Name())
		}
	}
}

// joinWalker searches a launched body (and its module-internal callees)
// for a join or cancellation signal.
type joinWalker struct {
	prog    *Program
	visited map[*types.Func]bool
}

// bodyJoins reports whether a reachable block of body contains a join
// signal, expanding module-internal calls.
func (w *joinWalker) bodyJoins(body *ast.BlockStmt, pkg *Package) bool {
	cfg := buildCFG(body)
	reach := cfg.Reachable()
	for _, blk := range cfg.Blocks {
		if !reach[blk] {
			continue
		}
		for _, n := range blk.Nodes {
			if w.nodeJoins(n, pkg) {
				return true
			}
		}
	}
	return false
}

// nodeJoins inspects one CFG node for a join signal, recursing into
// module-internal callees (their signals fire whenever the goroutine
// runs them, so they count for the launch site).
func (w *joinWalker) nodeJoins(root ast.Node, pkg *Package) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // receive: rendezvous with a peer
			}
		case *ast.RangeStmt:
			if t, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
					return false
				}
			}
			fn := calleeOf(pkg.Info, n)
			if fn == nil {
				return true
			}
			if isJoinMethod(fn) || isCtxDone(fn) {
				found = true
				return false
			}
			if w.prog.inModule(fn) && !w.visited[fn] {
				w.visited[fn] = true
				if decl, declPkg := w.prog.FuncDecl(fn); decl != nil && decl.Body != nil {
					if w.bodyJoins(decl.Body, declPkg) {
						found = true
						return false
					}
				}
			}
		}
		return !found
	})
	return found
}

// isJoinMethod reports whether fn is a sync.WaitGroup method that ties
// the goroutine to a waiter (Done signals the join; Wait blocks until
// peers finish, bounding a closer goroutine).
func isJoinMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, _ := namedStruct(recv.Type())
	if named == nil || named.Obj().Name() != "WaitGroup" {
		return false
	}
	return fn.Name() == "Done" || fn.Name() == "Wait"
}

// isCtxDone reports whether fn is context.Context.Done — selecting on it
// is the cancellation bound.
func isCtxDone(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return isContextType(recv.Type()) && fn.Name() == "Done"
}
