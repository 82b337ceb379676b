package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseFuncCFG type-checks a synthetic single-function file and returns
// the function's CFG.
func parseFuncCFG(t *testing.T, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "synthetic.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	conf := types.Config{}
	if _, err := conf.Check("synthetic", fset, []*ast.File{file}, nil); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return buildCFG(fd.Body)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// blocksOfKind returns reachable blocks whose Kind matches.
func blocksOfKind(c *CFG, kind string) []*Block {
	reach := c.Reachable()
	var out []*Block
	for _, blk := range c.Blocks {
		if blk.Kind == kind && reach[blk] {
			out = append(out, blk)
		}
	}
	return out
}

func oneBlock(t *testing.T, c *CFG, kind string) *Block {
	t.Helper()
	got := blocksOfKind(c, kind)
	if len(got) != 1 {
		t.Fatalf("want exactly one reachable %q block, got %d\n%s", kind, len(got), c)
	}
	return got[0]
}

func TestCFGIfElse(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(x int) int {
	if x > 0 {
		x++
	} else {
		x--
	}
	return x
}`)
	// Entry holds the condition; its Succs follow the true/false convention.
	entry := cfg.Entry
	if len(entry.Succs) != 2 {
		t.Fatalf("cond block wants 2 succs, got %d\n%s", len(entry.Succs), cfg)
	}
	if entry.Succs[0].Kind != "if.then" {
		t.Errorf("Succs[0] = %q, want if.then (true edge)", entry.Succs[0].Kind)
	}
	if entry.Succs[1].Kind != "if.else" {
		t.Errorf("Succs[1] = %q, want if.else (false edge)", entry.Succs[1].Kind)
	}
	// Both arms converge on the join, which returns.
	join := oneBlock(t, cfg, "if.join")
	if len(join.Succs) != 1 || join.Succs[0] != cfg.Exit {
		t.Errorf("join should edge to exit\n%s", cfg)
	}
	// Condition is the last node of its block.
	last := entry.Nodes[len(entry.Nodes)-1]
	if _, ok := last.(*ast.BinaryExpr); !ok {
		t.Errorf("last node of cond block = %T, want condition expression", last)
	}
}

func TestCFGIfNoElse(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(x int) int {
	if x > 0 {
		x++
	}
	return x
}`)
	entry := cfg.Entry
	if len(entry.Succs) != 2 {
		t.Fatalf("cond block wants 2 succs, got %d\n%s", len(entry.Succs), cfg)
	}
	if entry.Succs[0].Kind != "if.then" || entry.Succs[1].Kind != "if.join" {
		t.Errorf("succ kinds = %q,%q, want if.then,if.join\n%s",
			entry.Succs[0].Kind, entry.Succs[1].Kind, cfg)
	}
}

func TestCFGForLoop(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	return s
}`)
	head := oneBlock(t, cfg, "for.head")
	body := oneBlock(t, cfg, "for.body")
	join := oneBlock(t, cfg, "for.join")
	post := oneBlock(t, cfg, "for.post")
	if head.Succs[0] != body || head.Succs[1] != join {
		t.Errorf("head succs: want [body join]\n%s", cfg)
	}
	if len(post.Succs) != 1 || post.Succs[0] != head {
		t.Errorf("post should back-edge to head\n%s", cfg)
	}
	// continue lands on post, break on join.
	hasEdge := func(from, to *Block) bool {
		for _, s := range from.Succs {
			if s == to {
				return true
			}
		}
		return false
	}
	contThen := blocksOfKind(cfg, "if.then")[0]
	if !hasEdge(contThen, post) {
		t.Errorf("continue should edge to for.post\n%s", cfg)
	}
	breakThen := blocksOfKind(cfg, "if.then")[1]
	if !hasEdge(breakThen, join) {
		t.Errorf("break should edge to for.join\n%s", cfg)
	}
}

func TestCFGRange(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`)
	head := oneBlock(t, cfg, "range.head")
	body := oneBlock(t, cfg, "range.body")
	join := oneBlock(t, cfg, "range.join")
	if head.Succs[0] != body || head.Succs[1] != join {
		t.Errorf("range head succs: want [body join]\n%s", cfg)
	}
	if len(body.Succs) != 1 || body.Succs[0] != head {
		t.Errorf("range body should back-edge to head\n%s", cfg)
	}
	// The head's node is the RangeStmt itself, so analyzers can read X/Key.
	if len(head.Nodes) != 1 {
		t.Fatalf("range head wants 1 node, got %d", len(head.Nodes))
	}
	if _, ok := head.Nodes[0].(*ast.RangeStmt); !ok {
		t.Errorf("range head node = %T, want *ast.RangeStmt", head.Nodes[0])
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(m [][]int) int {
	s := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			s += v
		}
	}
	return s
}`)
	joins := blocksOfKind(cfg, "range.join")
	if len(joins) != 2 {
		t.Fatalf("want 2 range joins, got %d\n%s", len(joins), cfg)
	}
	// The outer loop's join is the one that edges to exit via the return.
	var outerJoin *Block
	for _, j := range joins {
		for _, s := range j.Succs {
			if s == cfg.Exit {
				outerJoin = j
			}
		}
	}
	if outerJoin == nil {
		t.Fatalf("no range join edges to exit\n%s", cfg)
	}
	// break outer must edge to the OUTER join, skipping the inner one.
	then := oneBlock(t, cfg, "if.then")
	found := false
	for _, s := range then.Succs {
		if s == outerJoin {
			found = true
		}
	}
	if !found {
		t.Errorf("break outer should edge to outer range.join\n%s", cfg)
	}
}

func TestCFGLabeledContinueAndGoto(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(n int) int {
	s := 0
	if n < 0 {
		goto done
	}
loop:
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			continue loop
		}
		s += i
	}
done:
	return s
}`)
	// goto done must edge to the label.done block.
	var doneBlk *Block
	for _, blk := range cfg.Blocks {
		if blk.Kind == "label.done" {
			doneBlk = blk
		}
	}
	if doneBlk == nil {
		t.Fatalf("no label.done block\n%s", cfg)
	}
	gotoEdge := false
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok.String() == "goto" {
				for _, s := range blk.Succs {
					if s == doneBlk {
						gotoEdge = true
					}
				}
			}
		}
	}
	if !gotoEdge {
		t.Errorf("goto done should edge to label.done\n%s", cfg)
	}
	// continue loop must edge to for.post (the i++ block).
	post := oneBlock(t, cfg, "for.post")
	contEdge := false
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok.String() == "continue" {
				for _, s := range blk.Succs {
					if s == post {
						contEdge = true
					}
				}
			}
		}
	}
	if !contEdge {
		t.Errorf("continue loop should edge to for.post\n%s", cfg)
	}
}

func TestCFGDeferAndReturn(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(x int) (int, error) {
	defer func() {}()
	if x < 0 {
		return 0, nil
	}
	defer func() {}()
	return x, nil
}`)
	if len(cfg.Defers) != 2 {
		t.Fatalf("want 2 defers collected, got %d", len(cfg.Defers))
	}
	// Every return block edges to Exit; nothing else does except falls.
	returns := 0
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
				edged := false
				for _, s := range blk.Succs {
					if s == cfg.Exit {
						edged = true
					}
				}
				if !edged {
					t.Errorf("return block b%d does not edge to exit\n%s", blk.Index, cfg)
				}
			}
		}
	}
	if returns != 2 {
		t.Errorf("want 2 return statements in graph, got %d", returns)
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(x int) int {
	s := 0
	switch x {
	case 1:
		s = 1
		fallthrough
	case 2:
		s += 2
	default:
		s = -1
	}
	return s
}`)
	cases := blocksOfKind(cfg, "switch.case")
	if len(cases) != 3 {
		t.Fatalf("want 3 case blocks, got %d\n%s", len(cases), cfg)
	}
	// case 1 falls through to case 2.
	hasEdge := false
	for _, s := range cases[0].Succs {
		if s == cases[1] {
			hasEdge = true
		}
	}
	if !hasEdge {
		t.Errorf("fallthrough edge case1 -> case2 missing\n%s", cfg)
	}
	// With a default clause, the head must NOT edge straight to join.
	head := oneBlock(t, cfg, "switch.head")
	join := oneBlock(t, cfg, "switch.join")
	for _, s := range head.Succs {
		if s == join {
			t.Errorf("switch with default should not edge head->join\n%s", cfg)
		}
	}
}

func TestCFGSelect(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
		return 0
	}
}`)
	head := oneBlock(t, cfg, "select.head")
	cases := blocksOfKind(cfg, "select.case")
	if len(cases) != 2 {
		t.Fatalf("want 2 select cases, got %d\n%s", len(cases), cfg)
	}
	if len(head.Succs) != 2 {
		t.Errorf("select head wants 2 succs, got %d\n%s", len(head.Succs), cfg)
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f(x int) int {
	if x < 0 {
		panic("neg")
	}
	return x
}`)
	then := oneBlock(t, cfg, "if.then")
	if len(then.Succs) != 1 || then.Succs[0] != cfg.Exit {
		t.Errorf("panic block should edge only to exit\n%s", cfg)
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f() int {
	return 1
	x := 2
	_ = x
	return x
}`)
	reach := cfg.Reachable()
	dead := 0
	for _, blk := range cfg.Blocks {
		if !reach[blk] && len(blk.Nodes) > 0 {
			dead++
		}
	}
	if dead == 0 {
		t.Errorf("code after return should be in unreachable blocks\n%s", cfg)
	}
}

func TestCFGStringRendering(t *testing.T) {
	cfg := parseFuncCFG(t, `package p
func f() {}`)
	s := cfg.String()
	if !strings.Contains(s, "b0 entry") || !strings.Contains(s, "exit") {
		t.Errorf("rendering missing entry/exit:\n%s", s)
	}
}
