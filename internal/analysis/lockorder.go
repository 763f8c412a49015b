package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the mutex-acquisition graph across the whole program
// and reports lock-order cycles: somewhere lock A is taken while B is held
// and somewhere else B is taken while A is held (directly or through a
// callee chain) — the classic ABBA deadlock, invisible to any
// single-function walk.
//
// Locks are identified by class — "pkg.Type.field" after the type whose
// field the mutex is, however it is reached, "pkg.var" for package-level
// ones — so h1.mu and h2.mu of the same type order against each other,
// and c.stack.mu is the same class as s.mu.
// Function-local mutexes have no class: no other function can
// participate in an ordering with them. Two acquisitions of the *same*
// class (locking two peers of one type) are not reported: ordering those
// needs a runtime tiebreak the analyzer cannot see.
//
// Locks held across a park or a synchronous re-entry are not this check's
// business: virtual-time code needs no mutex (the scheduler runs one
// goroutine at a time), and netsim's blocking APIs panic when called from
// anywhere but their own running process.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-order cycles in the module-wide mutex-acquisition graph",
	Run:  runLockOrder,
}

// lockEdge records "to acquired while from was held" at one site.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
	via      string // callee chain when the acquisition is transitive
}

type lockGraph struct {
	edges []lockEdge

	onCycle map[string]string // "from→to" → cycle description
}

// lockOrderGraph builds (once) the program-wide acquisition graph.
func (p *Program) lockOrderGraph() *lockGraph {
	if p.lockGraph != nil {
		return p.lockGraph
	}
	g := &lockGraph{}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &orderWalker{prog: p, pkg: pkg, g: g, held: map[string]string{}}
				w.walk(fd.Body)
			}
		}
	}
	g.findCycles()
	p.lockGraph = g
	return g
}

// findCycles marks every edge whose target can reach back to its source.
func (g *lockGraph) findCycles() {
	g.onCycle = map[string]string{}
	adj := map[string]map[string]bool{}
	for _, e := range g.edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	// path returns a lock sequence from src to dst, or nil.
	var path func(src, dst string, seen map[string]bool) []string
	path = func(src, dst string, seen map[string]bool) []string {
		if src == dst {
			return []string{src}
		}
		if seen[src] {
			return nil
		}
		seen[src] = true
		next := make([]string, 0, len(adj[src]))
		for n := range adj[src] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if p := path(n, dst, seen); p != nil {
				return append([]string{src}, p...)
			}
		}
		return nil
	}
	for _, e := range g.edges {
		key := e.from + "→" + e.to
		if _, done := g.onCycle[key]; done {
			continue
		}
		if back := path(e.to, e.from, map[string]bool{}); back != nil {
			g.onCycle[key] = strings.Join(append([]string{e.from}, back...), " → ")
		}
	}
}

// orderWalker walks one function body in statement order, tracking which
// mutexes are held — from x.Lock()/x.RLock() to the matching Unlock in
// statement order, to the end of the function under defer x.Unlock() —
// and records a graph edge from every held class to each lock taken,
// directly or inside a callee. Helper methods that are only ever called
// with a lock held (the fooLocked convention) are not chased.
type orderWalker struct {
	prog *Program
	pkg  *Package
	g    *lockGraph
	// held maps the access chain of each classed mutex currently held to
	// its lock class; function-local mutexes order against nothing.
	held map[string]string
}

// mutexOp recognizes <chain>.Lock/RLock/Unlock/RUnlock() on a
// sync.Mutex/RWMutex-typed receiver and returns the chain and whether the
// op acquires.
func mutexOp(info *types.Info, call *ast.CallExpr) (chain string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || pkgPathOf(fn) != "sync" {
		return "", false, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", false, false
	}
	chain, base := rootChain(info, sel.X)
	if base == nil {
		return "", false, false
	}
	return chain, acquire, true
}

// walk processes statements in order, updating the held set and handing
// everything else to scanHeld. Branch bodies are walked with the current
// held set (a lock held at the branch point is held inside it).
func (w *orderWalker) walk(n ast.Node) {
	switch x := n.(type) {
	case *ast.BlockStmt:
		for _, s := range x.List {
			w.walk(s)
		}
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if chain, acquire, ok := mutexOp(w.pkg.Info, call); ok {
				if !acquire {
					delete(w.held, chain)
				} else if class := w.acquire(call); class != "" {
					w.held[chain] = class
				}
				return
			}
		}
		w.scanHeld(x)
	case *ast.DeferStmt:
		if _, acquire, ok := mutexOp(w.pkg.Info, x.Call); ok && !acquire {
			// defer mu.Unlock(): held for the rest of the function; the
			// preceding Lock already put it in the set, keep it there.
			return
		}
		w.scanHeld(x)
	case *ast.IfStmt:
		if x.Init != nil {
			w.walk(x.Init)
		}
		w.scanHeld(x.Cond)
		// Clone so an Unlock on one branch doesn't leak to the other.
		w.walkBranch(x.Body)
		if x.Else != nil {
			w.walkBranch(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.walk(x.Init)
		}
		if x.Cond != nil {
			w.scanHeld(x.Cond)
		}
		w.walkBranch(x.Body)
	case *ast.RangeStmt:
		w.scanHeld(x.X)
		w.walkBranch(x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walk(x.Init)
		}
		if x.Tag != nil {
			w.scanHeld(x.Tag)
		}
		w.walkBranch(x.Body)
	case *ast.TypeSwitchStmt:
		w.walkBranch(x.Body)
	case *ast.SelectStmt:
		w.walkBranch(x.Body)
	case *ast.CaseClause:
		for _, s := range x.Body {
			w.walk(s)
		}
	case *ast.CommClause:
		if x.Comm != nil {
			w.walk(x.Comm)
		}
		for _, s := range x.Body {
			w.walk(s)
		}
	case *ast.LabeledStmt:
		w.walk(x.Stmt)
	case ast.Stmt:
		w.scanHeld(x)
	case ast.Expr:
		w.scanHeld(x)
	}
}

// walkBranch walks a nested region with a copy of the held set, so lock
// state changes inside a branch stay local to it.
func (w *orderWalker) walkBranch(n ast.Node) {
	saved := w.held
	w.held = make(map[string]string, len(saved))
	for k, v := range saved {
		w.held[k] = v
	}
	w.walk(n)
	w.held = saved
}

// acquire adds an edge from every held class to the one being taken and
// returns its class.
func (w *orderWalker) acquire(call *ast.CallExpr) string {
	class := lockClass(w.pkg.Info, call)
	if class != "" {
		for _, held := range w.held {
			if held != class {
				w.g.edges = append(w.g.edges, lockEdge{from: held, to: class, pos: call.Pos(), pkg: w.pkg})
			}
		}
	}
	return class
}

// scanHeld adds, for one statement/expression reached with a lock held,
// the edges its callees' summaries acquire. Nested function literals are
// skipped: they run later, typically after the lock is dropped.
func (w *orderWalker) scanHeld(n ast.Node) {
	if len(w.held) == 0 {
		return
	}
	info := w.pkg.Info
	inspectSkipFuncLit(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		for _, cand := range w.prog.resolveCall(info, call) {
			sum := w.prog.SummaryOf(cand)
			if sum == nil {
				continue
			}
			name := cand.Name()
			if r := recvTypeName(cand); r != "" {
				name = r + "." + name
			}
			for class, reach := range sum.Acquires {
				for _, held := range w.held {
					if held != class {
						w.g.edges = append(w.g.edges, lockEdge{from: held, to: class, pos: call.Pos(), pkg: w.pkg, via: through(name, reach).chain()})
					}
				}
			}
		}
	})
}

func runLockOrder(pass *Pass) {
	g := pass.Prog.lockOrderGraph()
	reported := map[string]bool{}
	for _, e := range g.edges {
		if e.pkg != pass.Pkg {
			continue
		}
		key := e.from + "→" + e.to
		cycle, ok := g.onCycle[key]
		if !ok || reported[key] {
			continue
		}
		reported[key] = true
		via := ""
		if e.via != "" {
			via = " (via " + e.via + ")"
		}
		pass.Reportf(e.pos, "acquiring %s while holding %s%s closes a lock-order cycle (%s); acquire locks in one global order", e.to, e.from, via, cycle)
	}
}
