package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrder is the call-graph-aware companion to LockedSend: it builds
// the mutex-acquisition graph across the whole program and reports
//
//   - lock-order cycles: somewhere lock A is taken while B is held and
//     somewhere else B is taken while A is held (directly or through a
//     callee chain) — the classic ABBA deadlock, invisible to any
//     single-function walk;
//   - locks held across Proc blocking points: a simulated process that
//     parks (Proc.Sleep, WaitQueue.Wait, Conn.Read — anything taking a
//     *netsim.Proc) while holding a mutex wedges every other process
//     that needs the lock, including through helpers whose blocking is
//     only visible in their summaries;
//   - locks held across calls whose *callees* emit packets or invoke
//     callbacks (the direct-emission case is LockedSend's).
//
// Locks are identified by class — "pkg.Type.field" for mutexes reached
// through a receiver or parameter, "pkg.var" for package-level ones —
// so h1.mu and h2.mu of the same type order against each other.
// Function-local mutexes have no class: no other function can
// participate in an ordering with them, so they only join the
// held-across-blocking check. Two acquisitions of the *same* class
// (locking two peers of one type) are not reported: ordering those
// needs a runtime tiebreak the analyzer cannot see.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-order cycles and locks held across blocking or emitting call chains",
	Run:  runLockOrder,
}

// lockEdge records "to acquired while from was held" at one site.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
	via      string // callee chain when the acquisition is transitive
}

// lockSite records a lock held across a blocking or emitting operation.
type lockSite struct {
	pos  token.Pos
	pkg  *Package
	held string // display name of the held lock(s)
	what string // what happens under the lock
}

type lockGraph struct {
	edges  []lockEdge
	blocks []lockSite
	emits  []lockSite

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
				w := &orderWalker{prog: p, pkg: pkg, g: g}
				w.hw = &heldWalker{info: pkg.Info, held: map[string]string{}, acquire: w.acquire, scan: w.scan}
				w.hw.walk(fd.Body)
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

// orderWalker records, for one function, the graph edges and the
// blocking/emitting sites its heldWalker comes across; held classes are ""
// for function-local mutexes.
type orderWalker struct {
	prog *Program
	pkg  *Package
	g    *lockGraph
	hw   *heldWalker
}

func (w *orderWalker) heldDesc() string {
	names := make([]string, 0, len(w.hw.held))
	for chain, class := range w.hw.held {
		if class != "" {
			names = append(names, class)
		} else {
			names = append(names, chain)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// acquire adds an edge from every held class to the one being taken.
func (w *orderWalker) acquire(call *ast.CallExpr, chain string) string {
	class := lockClass(w.pkg.Info, call, chain)
	if class != "" {
		for _, held := range w.hw.held {
			if held != "" && held != class {
				w.g.edges = append(w.g.edges, lockEdge{from: held, to: class, pos: call.Pos(), pkg: w.pkg})
			}
		}
	}
	return class
}

// scan inspects one statement/expression under the current held set.
func (w *orderWalker) scan(n ast.Node) {
	info := w.pkg.Info
	inspectSkipFuncLit(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(info, call)

		// Direct Proc blocking under a lock.
		if fn != nil && isNetsimFunc(fn) && recvTypeName(fn) == "Proc" && fn.Name() == "Sleep" {
			w.g.blocks = append(w.g.blocks, lockSite{pos: call.Pos(), pkg: w.pkg, held: w.heldDesc(), what: "Proc.Sleep"})
			return
		}
		isSpawn := fn != nil && isNetsimFunc(fn) && fn.Name() == "Spawn"
		if !isSpawn {
			for _, a := range call.Args {
				if isProcPtr(info, a) {
					w.g.blocks = append(w.g.blocks, lockSite{pos: call.Pos(), pkg: w.pkg, held: w.heldDesc(), what: callDisplayName(fn, call) + " (takes *Proc)"})
					return
				}
			}
		}
		if fn == nil {
			return
		}
		// Direct emissions are LockedSend's; here only callee facts.
		directSend := sendNames[fn.Name()] && strings.HasPrefix(pkgPathOf(fn), "hipcloud/")
		for _, cand := range w.prog.resolveCall(info, call) {
			sum := w.prog.SummaryOf(cand)
			if sum == nil {
				continue
			}
			name := cand.Name()
			if r := recvTypeName(cand); r != "" {
				name = r + "." + name
			}
			// Transitive acquisitions: edges from every held class.
			for class, reach := range sum.Acquires {
				for _, held := range w.hw.held {
					if held != "" && held != class {
						w.g.edges = append(w.g.edges, lockEdge{from: held, to: class, pos: call.Pos(), pkg: w.pkg, via: through(name, reach).chain()})
					}
				}
			}
			if sum.Blocks != nil {
				w.g.blocks = append(w.g.blocks, lockSite{pos: call.Pos(), pkg: w.pkg, held: w.heldDesc(), what: through(name, sum.Blocks).chain()})
			}
			if sum.Emits != nil && !directSend {
				w.g.emits = append(w.g.emits, lockSite{pos: call.Pos(), pkg: w.pkg, held: w.heldDesc(), what: through(name, sum.Emits).chain()})
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
	// Held-across-blocking and held-across-emit extend schedblock and
	// lockedsend through the call graph, and like those checks they are
	// run-to-completion rules: they apply only to the virtual-time
	// packages. Real-socket packages (hipudp, cmd/*) hold mutexes across
	// blocking I/O and callback dispatch by design — goroutines and
	// blocking calls are their whole concurrency model — so only the
	// lock-order-cycle rule above applies to them.
	if !virtualTimePkgs[pass.Pkg.Name] {
		return
	}
	for _, s := range g.blocks {
		if s.pkg != pass.Pkg {
			continue
		}
		pass.Reportf(s.pos, "%s held across %s, which parks the calling process; any process needing the lock deadlocks the simulation", s.held, s.what)
	}
	for _, s := range g.emits {
		if s.pkg != pass.Pkg {
			continue
		}
		pass.Reportf(s.pos, "%s held across a call that reaches %s; delivery can re-enter the lock holder synchronously (deadlock shape)", s.held, s.what)
	}
}
