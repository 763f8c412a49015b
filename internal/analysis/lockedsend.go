package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockedSend flags the simulator's deadlock shape: holding a sync.Mutex /
// RWMutex across a packet emission or callback invocation. A
// Fabric.Send-shaped call re-enters the scheduler, which can deliver a
// packet back into the sender synchronously; if the delivery path needs
// the same lock, the simulation wedges. Callback invocations
// (func-valued fields) and channel sends have the same structure: code
// the lock holder does not control runs while the lock is held.
//
// The check is intra-procedural and flow-approximate: a mutex counts as
// held from x.Lock()/x.RLock() to the matching x.Unlock()/x.RUnlock() in
// statement order; defer x.Unlock() holds it to the end of the function.
// Helper methods that are only ever *called* with a lock held (the
// fooLocked convention) are not chased.
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc:  "Fabric.Send-shaped calls, callbacks or channel sends while holding a sync.Mutex",
	Run:  runLockedSend,
}

// sendNames are the emission methods that must not run under a lock.
var sendNames = map[string]bool{"Send": true, "SendTo": true, "SendRaw": true}

func runLockedSend(pass *Pass) {
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeLockedBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				analyzeLockedBody(pass, fn.Body)
			}
			return true
		})
	}
}

// heldWalker walks one function body in statement order, tracking which
// mutexes are held: from x.Lock()/x.RLock() to the matching Unlock in
// statement order, to the end of the function under defer x.Unlock().
// LockedSend and LockOrder share it; they differ in what they record when
// a lock is taken and what they look for while one is held.
type heldWalker struct {
	info *types.Info
	// held maps the access chain of each mutex currently held to its lock
	// class ("" where the client assigns none).
	held map[string]string
	// acquire is told of each lock taken, before it joins held, and
	// returns its class.
	acquire func(call *ast.CallExpr, chain string) string
	// scan is handed each statement or expression reached with a lock held.
	scan func(n ast.Node)
}

func analyzeLockedBody(pass *Pass, body *ast.BlockStmt) {
	w := &heldWalker{info: pass.Pkg.Info, held: map[string]string{}}
	w.acquire = func(*ast.CallExpr, string) string { return "" }
	w.scan = func(n ast.Node) { scanLockedSend(pass, w, n) }
	w.walk(body)
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
func (w *heldWalker) walk(n ast.Node) {
	switch x := n.(type) {
	case *ast.BlockStmt:
		for _, s := range x.List {
			w.walk(s)
		}
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if chain, acquire, ok := mutexOp(w.info, call); ok {
				if acquire {
					w.held[chain] = w.acquire(call, chain)
				} else {
					delete(w.held, chain)
				}
				return
			}
		}
		w.scanHeld(x)
	case *ast.DeferStmt:
		if _, acquire, ok := mutexOp(w.info, x.Call); ok && !acquire {
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
func (w *heldWalker) walkBranch(n ast.Node) {
	saved := w.held
	w.held = make(map[string]string, len(saved))
	for k, v := range saved {
		w.held[k] = v
	}
	w.walk(n)
	w.held = saved
}

// scanHeld passes n to the client's scan when any mutex is held.
func (w *heldWalker) scanHeld(n ast.Node) {
	if len(w.held) > 0 {
		w.scan(n)
	}
}

// scanLockedSend looks for emissions inside one statement/expression
// reached with a mutex held. Nested function literals are skipped: they
// run later, typically after the lock is dropped, and are analyzed
// separately.
func scanLockedSend(pass *Pass, w *heldWalker, n ast.Node) {
	heldNames := make([]string, 0, len(w.held))
	for k := range w.held {
		heldNames = append(heldNames, k)
	}
	lockDesc := strings.Join(heldNames, ", ")
	inspectSkipFuncLit(n, func(m ast.Node) {
		switch x := m.(type) {
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send while holding %s; the receiver may need the same lock (deadlock shape)", lockDesc)
		case *ast.CallExpr:
			if fn := calleeFunc(w.info, x); fn != nil {
				if sendNames[fn.Name()] && strings.HasPrefix(pkgPathOf(fn), "hipcloud/") {
					pass.Reportf(x.Pos(), "%s.%s while holding %s; delivery can re-enter the lock holder synchronously (deadlock shape)", recvTypeName(fn), fn.Name(), lockDesc)
				}
				return
			}
			if isDynamicCall(w.info, x) {
				pass.Reportf(x.Pos(), "callback invocation while holding %s; the callee may need the same lock (deadlock shape)", lockDesc)
			}
		}
	})
}
