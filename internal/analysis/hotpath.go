package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath enforces the repo's perf contracts the way the other analyzers
// enforce its security contracts: statically. PR 1/6 bought the data
// plane and the simulator core their 0-alloc hot paths (19.4 ns/event),
// but the only guard was a handful of runtime AllocsPerRun tests — one
// stray boxing conversion or capturing closure in a dispatch loop
// silently erodes the sim_rubis host time. HotPath computes the
// transitive *hot set* from the declared roots below (the event dispatch
// loop, the packet pumps, the seal/open fast paths, the HIP packet/timer
// handlers) by walking the PR 8 call graph, and flags inside it the
// allocation idioms only the AST shows — the compiler's -m=2 commentary
// reports none of the fixture's seven lines for them:
//
//   - interface boxing at call sites (concrete non-pointer → interface)
//   - capturing closures (each creation heap-allocates its environment)
//   - growing append on fresh, non-pooled buffers
//   - string ↔ []byte conversions outside the compiler-optimized forms
//   - map iteration (randomized order, cache-hostile)
//
// Error and panic branches are exempt: a branch that exists to construct
// and return an error may allocate — that path runs once per failure,
// not once per event.
//
// Everything the compiler does report belongs to the companion
// `hiplint -budget` mode (budget.go), which pins its escape and
// bounds-check diagnostics per hot function: defer/go wrapper closures
// (a defer in a loop), what fmt, log and errors.New allocate, and
// heap-escaping &composite literals. The budget pins counts, cold
// branches included — any drift fails — so it needs no exemption rule
// of its own.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "allocation, boxing and iteration-order idioms inside the declared hot set",
	Run:  runHotPath,
}

// HotRoot declares one hot-set root by package name, receiver type name
// ("" for plain functions) and function name. Package *names* (not
// import paths) are matched so the testdata fixtures, which re-declare
// `package netsim` under another import path, exercise the same
// predicate as the real tree.
type HotRoot struct {
	Pkg  string
	Recv string
	Func string
}

// DefaultHotRoots is the explicit hot-set contract, mirrored in
// DESIGN.md §5a: the run-to-completion event dispatch and timer wheel
// (netsim), the rx/tx packet paths, the simtcp/hipsim kick/service
// pumps, the ESP and TLS record seal/open fast paths, the HIP
// packet/timer handlers and the real-UDP driver's transmit and receive
// paths. Everything statically reachable from these is
// hot; a function joins through interface dispatch only when the
// dispatch *must* land on it (single module implementor — PR 8's
// must-semantics, so a cold alternate implementor does not drag its
// siblings in, and an ambiguous call site condemns nobody) or when the
// interface is sealed (see hotCallees) — which is how the seal/open
// roots reach every keymat.AEAD transform without naming one.
var DefaultHotRoots = []HotRoot{
	{"netsim", "Sim", "Run"},
	{"netsim", "Sim", "fire"},
	{"netsim", "Sim", "scheduleDeliver"},
	{"netsim", "Sim", "scheduleWake"},
	{"netsim", "Timer", "Reset"},
	{"netsim", "Node", "SendRaw"},
	{"netsim", "Node", "receive"},
	{"netsim", "UDPSocket", "SendTo"},
	{"simtcp", "Stack", "deliver"},
	{"simtcp", "Stack", "kick"},
	{"simtcp", "Stack", "service"},
	{"simtcp", "Stack", "chargeDone"},
	{"hipsim", "Fabric", "kick"},
	{"hipsim", "Fabric", "service"},
	{"hipsim", "Fabric", "chargeDone"},
	{"esp", "OutboundSA", "SealAppend"},
	{"esp", "InboundSA", "OpenAppend"},
	{"tlslite", "Conn", "Write"},
	{"tlslite", "Conn", "Read"},
	{"tlslite", "Conn", "sealRecordAppend"},
	{"tlslite", "Conn", "openRecordInPlace"},
	{"hip", "Host", "OnPacket"},
	{"hip", "Host", "OnTimer"},
	{"hipudp", "Stack", "pumpLocked"},
	{"hipudp", "Stack", "onFrames"},
}

// HotInfo records how one function joined the hot set.
type HotInfo struct {
	Fn *types.Func
	// Via is the call chain from a declared root down to this function,
	// root first, capped for narration like Reach chains.
	Via []string
}

func (hi *HotInfo) chain() string { return strings.Join(hi.Via, " → ") }

// HotSet returns the transitive hot set from DefaultHotRoots, memoized
// on the program. Edges follow statically resolved module calls and the
// interface calls hotCallees can close over (one implementor, or a
// sealed interface), except calls inside a nil-guarded hook. Calls
// through plain func values resolve to nothing — the run-to-completion
// core is closure-free by design, and the roots are declared per layer
// precisely because dynamic hops are lossy.
func (p *Program) HotSet() map[*types.Func]*HotInfo {
	if p.hotSet != nil {
		return p.hotSet
	}
	hot := make(map[*types.Func]*HotInfo)
	var queue []*types.Func
	for _, fn := range p.order {
		fi := p.fns[fn]
		for _, r := range DefaultHotRoots {
			if fi.pkg.Name == r.Pkg && fn.Name() == r.Func && recvTypeName(fn) == r.Recv {
				hot[fn] = &HotInfo{Fn: fn, Via: []string{hotFnName(fn)}}
				queue = append(queue, fn)
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fi := p.fns[fn]
		base := hot[fn].Via
		// A body behind `if pkgVar != nil` runs only when a hook is wired
		// up (netsim's test-binary pool ledger): what it calls
		// stays out of the set, as coldBlocks keeps it out of the checks.
		hooked := make(map[ast.Node]bool)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && pkgVarNonNilGuard(fi.pkg.Info, ifs.Cond) {
				hooked[ifs.Body] = true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return !hooked[n]
			}
			for _, cand := range p.hotCallees(fi.pkg.Info, call) {
				if hot[cand] != nil {
					continue
				}
				via := append(append([]string(nil), base...), hotFnName(cand))
				if len(via) > 6 {
					via = append(via[:1], via[len(via)-5:]...)
				}
				hot[cand] = &HotInfo{Fn: cand, Via: via}
				queue = append(queue, cand)
			}
			return true
		})
	}
	p.hotSet = hot
	return hot
}

// hotCallees returns the module functions a call pulls into the hot set:
// the static callee when declared in the program, or — for interface
// dispatch — the single module implementor (must-dispatch), or every
// implementor of a *sealed* interface: one declared in a module package
// that also holds all of its module implementors (keymat.AEAD and its
// five transforms), so each of them is a landing the package itself
// chose. An implementor added in another package un-seals the interface:
// the call then pulls in nobody and -budget fails on the vanished keys.
func (p *Program) hotCallees(info *types.Info, call *ast.CallExpr) []*types.Func {
	fn := calleeFunc(info, call)
	if fn != nil {
		if _, ok := p.fns[fn]; ok {
			return []*types.Func{fn}
		}
	}
	cands := p.resolveCall(info, call)
	if len(cands) > 1 {
		for _, c := range cands {
			if pkgPathOf(c) != pkgPathOf(fn) {
				return nil
			}
		}
	}
	return cands
}

func hotFnName(fn *types.Func) string {
	if r := recvTypeName(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

func runHotPath(pass *Pass) {
	hot := pass.Prog.HotSet()
	for _, fn := range pass.Prog.order {
		hi, ok := hot[fn]
		if !ok {
			continue
		}
		fi := pass.Prog.fns[fn]
		if fi.pkg != pass.Pkg {
			continue
		}
		(&hotWalker{
			pass: pass,
			info: fi.pkg.Info,
			decl: fi.decl,
			hi:   hi,
		}).check()
	}
}

// hotWalker checks one hot function body.
type hotWalker struct {
	pass *Pass
	info *types.Info
	decl *ast.FuncDecl
	hi   *HotInfo

	cold       map[ast.Node]bool     // blocks exempt as error/panic paths
	exemptConv map[ast.Expr]bool     // conversions in compiler-optimized positions
	fresh      map[types.Object]bool // locals that only ever hold a fresh empty slice
}

func (hw *hotWalker) report(pos token.Pos, format string, args ...interface{}) {
	args = append(args, hw.hi.chain())
	hw.pass.Reportf(pos, format+" (hot via %s)", args...)
}

func (hw *hotWalker) check() {
	hw.cold = coldBlocks(hw.info, hw.decl)
	hw.prescan()

	ast.Inspect(hw.decl.Body, func(n ast.Node) bool {
		if hw.cold[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			return hw.call(x)
		case *ast.RangeStmt:
			if isMapRange(hw.info, x) {
				hw.report(x.Pos(), "map iteration on the hot path: order is randomized and cache-hostile; iterate a slice or insertion-ordered view")
			}
		case *ast.FuncLit:
			if caps := capturedVars(hw.info, hw.decl, x); len(caps) > 0 {
				hw.report(x.Pos(), "closure capturing %s allocates its environment per creation on the hot path; use a method value on pre-allocated state or pass data explicitly", strings.Join(caps, ", "))
			}
		}
		return true
	})
}

// prescan walks the body once collecting the context the per-node checks
// need: compiler-optimized conversion positions and fresh-empty slice
// locals.
func (hw *hotWalker) prescan() {
	hw.exemptConv = make(map[ast.Expr]bool)
	hw.fresh = make(map[types.Object]bool)
	poisoned := make(map[types.Object]bool)

	ast.Inspect(hw.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			hw.exemptConv[ast.Unparen(x.X)] = true
		case *ast.IndexExpr:
			if tv, ok := hw.info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					hw.exemptConv[ast.Unparen(x.Index)] = true
				}
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				hw.exemptConv[ast.Unparen(x.X)] = true
				hw.exemptConv[ast.Unparen(x.Y)] = true
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				hw.exemptConv[ast.Unparen(x.Tag)] = true
			}
		case *ast.DeclStmt:
			// var x []T with no initializer: a fresh empty slice.
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != 0 {
						continue
					}
					for _, name := range vs.Names {
						if obj := hw.info.Defs[name]; obj != nil && isSliceObj(obj) {
							hw.fresh[obj] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			hw.scanAssign(x, poisoned)
		}
		return true
	})
	for obj := range poisoned {
		delete(hw.fresh, obj)
	}
}

// scanAssign tracks which slice locals are guaranteed fresh-and-growing:
// assigned only empty literals/nil or self-appends. Any other source
// (a parameter, a pool buffer, a sized make, a field) poisons the local.
func (hw *hotWalker) scanAssign(as *ast.AssignStmt, poisoned map[types.Object]bool) {
	if len(as.Lhs) != len(as.Rhs) {
		for _, lhs := range as.Lhs {
			if obj := identObj(hw.info, lhs); obj != nil && isSliceObj(obj) {
				poisoned[obj] = true
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		obj := identObj(hw.info, lhs)
		if obj == nil || !isSliceObj(obj) {
			continue
		}
		rhs := ast.Unparen(as.Rhs[i])
		switch {
		case isEmptyCompositeOrNil(hw.info, rhs):
			hw.fresh[obj] = true
		case isSelfAppend(hw.info, rhs, obj):
			// append(x, ...) back into x: keeps fresh status.
		default:
			poisoned[obj] = true
		}
	}
}

// call dispatches the per-call checks. Returns false to skip the
// subtree (panic arguments are error-path by definition).
func (hw *hotWalker) call(call *ast.CallExpr) bool {
	info := hw.info
	if isBuiltinCall(info, call, "panic") {
		return false
	}
	if isBuiltinCall(info, call, "append") {
		hw.appendCheck(call)
		return true
	}
	// Conversions: string ↔ []byte outside optimized positions.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		hw.convCheck(call, tv.Type)
		return true
	}
	hw.boxingCheck(call, calleeFunc(info, call))
	return true
}

// boxingCheck flags concrete non-pointer values converted to interface
// parameters at a call site: each conversion heap-allocates the boxed
// copy. Pointer-shaped values (pointers, maps, chans, funcs) fit in the
// interface word directly, and constants are materialized in static data.
func (hw *hotWalker) boxingCheck(call *ast.CallExpr, fn *types.Func) {
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	} else if tv, ok := hw.info.Types[ast.Unparen(call.Fun)]; ok && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis.IsValid())
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := hw.info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil {
			continue // unknown or constant (static iface data)
		}
		at := tv.Type
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		if isPointerShaped(at) || isUntypedNil(at) {
			continue
		}
		hw.report(arg.Pos(), "boxing %s into %s allocates per call on the hot path; keep the concrete type or pass a pointer to reused state", types.TypeString(at, types.RelativeTo(hw.pass.Pkg.Types)), types.TypeString(pt, types.RelativeTo(hw.pass.Pkg.Types)))
	}
}

// paramTypeAt returns the type call argument i is assigned to, expanding
// variadics (for a non-... call the variadic slot contributes its element
// type; for f(xs...) the final argument is the slice itself).
func paramTypeAt(sig *types.Signature, i int, ellipsis bool) types.Type {
	np := sig.Params().Len()
	if np == 0 {
		return nil
	}
	if sig.Variadic() && i >= np-1 {
		last := sig.Params().At(np - 1).Type()
		if ellipsis && i == np-1 {
			return last
		}
		if s, ok := last.Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return last
	}
	if i >= np {
		return nil
	}
	return sig.Params().At(i).Type()
}

func (hw *hotWalker) appendCheck(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if isEmptyCompositeOrNil(hw.info, dst) {
		hw.report(call.Pos(), "append onto a fresh empty slice allocates and grows on the hot path; reuse a pooled or pre-sized buffer")
		return
	}
	if obj := identObj(hw.info, dst); obj != nil && hw.fresh[obj] {
		hw.report(call.Pos(), "append grows %s, a fresh unpooled buffer, on the hot path; take a pooled buffer (netsim.GetBuf) or a pre-sized scratch field", obj.Name())
	}
}

func (hw *hotWalker) convCheck(call *ast.CallExpr, dst types.Type) {
	arg := call.Args[0]
	src, ok := hw.info.Types[arg]
	if !ok || src.Type == nil {
		return
	}
	if hw.exemptConv[ast.Unparen(call)] {
		return // m[string(b)], comparisons, range, switch: compiler-optimized
	}
	switch {
	case isStringType(dst) && isByteSliceType(src.Type):
		hw.report(call.Pos(), "string(b) conversion copies on the hot path; keep the []byte, or use it directly as a map key/comparison operand (those forms don't allocate)")
	case isByteSliceType(dst) && isStringType(src.Type):
		hw.report(call.Pos(), "[]byte(s) conversion copies on the hot path; keep data as []byte end to end")
	}
}

// --- cold-path computation -------------------------------------------

// coldBlocks marks the error/panic branches of a function: an if-body
// guarded by `err != nil` (or the else of `err == nil`), an if-body
// guarded by a nil-check on a package-level variable (debug/trace hooks
// and test-binary ledgers default to nil; the guarded branch is
// configuration-dependent, off in production and benchmarks), and any
// block whose final statement panics or returns a non-nil error.
// Allocations there run once per failure, not once per event, and are
// exempt.
func coldBlocks(info *types.Info, decl *ast.FuncDecl) map[ast.Node]bool {
	cold := make(map[ast.Node]bool)
	errResult := funcReturnsError(info, decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		switch errNilGuard(info, ifs.Cond) {
		case guardErrNonNil:
			cold[ifs.Body] = true
		case guardErrNil:
			if blk, ok := ifs.Else.(*ast.BlockStmt); ok {
				cold[blk] = true
			}
		}
		if pkgVarNonNilGuard(info, ifs.Cond) {
			cold[ifs.Body] = true
		}
		if blockEndsCold(info, ifs.Body, errResult) {
			cold[ifs.Body] = true
		}
		if blk, ok := ifs.Else.(*ast.BlockStmt); ok && blockEndsCold(info, blk, errResult) {
			cold[blk] = true
		}
		return true
	})
	return cold
}

type guardKind int

const (
	guardNone guardKind = iota
	guardErrNonNil
	guardErrNil
)

// errNilGuard classifies `x != nil` / `x == nil` conditions where x is an
// error.
func errNilGuard(info *types.Info, cond ast.Expr) guardKind {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return guardNone
	}
	var other ast.Expr
	switch {
	case isNilIdent(b.X):
		other = b.Y
	case isNilIdent(b.Y):
		other = b.X
	default:
		return guardNone
	}
	tv, ok := info.Types[other]
	if !ok || tv.Type == nil || !isErrorType(tv.Type) {
		return guardNone
	}
	if b.Op == token.NEQ {
		return guardErrNonNil
	}
	return guardErrNil
}

// pkgVarNonNilGuard matches `v != nil` where v is a package-level
// variable: the optional-hook pattern (trace writers, test ledgers) whose
// guarded branch is off unless explicitly wired up.
func pkgVarNonNilGuard(info *types.Info, cond ast.Expr) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.NEQ {
		return false
	}
	var other ast.Expr
	switch {
	case isNilIdent(b.X):
		other = b.Y
	case isNilIdent(b.Y):
		other = b.X
	default:
		return false
	}
	obj := identObj(info, other)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// blockEndsCold reports whether a block's last statement panics or
// returns a non-nil error.
func blockEndsCold(info *types.Info, blk *ast.BlockStmt, errResultIdx int) bool {
	if len(blk.List) == 0 {
		return false
	}
	switch last := blk.List[len(blk.List)-1].(type) {
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok && isBuiltinCall(info, call, "panic") {
			return true
		}
	case *ast.ReturnStmt:
		if errResultIdx < 0 || errResultIdx >= len(last.Results) {
			return false
		}
		return !isNilIdent(last.Results[errResultIdx])
	}
	return false
}

// funcReturnsError returns the index of decl's error result, or -1.
func funcReturnsError(info *types.Info, decl *ast.FuncDecl) int {
	if decl.Type.Results == nil {
		return -1
	}
	idx := 0
	for _, f := range decl.Type.Results.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		if tv, ok := info.Types[f.Type]; ok && tv.Type != nil && isErrorType(tv.Type) {
			return idx + n - 1
		}
		idx += n
	}
	return -1
}

// --- small predicates -------------------------------------------------

func isErrorType(t types.Type) bool {
	return types.Implements(t, types.Universe.Lookup("error").Type().Underlying().(*types.Interface)) &&
		types.IsInterface(t)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isPointerShaped reports whether a value of type t fits the interface
// data word directly, so converting it to an interface does not allocate.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

func isSliceObj(obj types.Object) bool {
	_, ok := obj.Type().Underlying().(*types.Slice)
	return ok
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// isEmptyCompositeOrNil matches []T{}, []T(nil) and nil.
func isEmptyCompositeOrNil(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		if _, ok := info.Types[x].Type.Underlying().(*types.Slice); ok {
			return len(x.Elts) == 0
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() && len(x.Args) == 1 {
			return isNilIdent(x.Args[0])
		}
	}
	return false
}

// isSelfAppend matches append(obj, ...) growing obj itself.
func isSelfAppend(info *types.Info, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
		return false
	}
	return identObj(info, call.Args[0]) == obj
}

// capturedVars lists the enclosing function's variables a literal
// captures by reference (anything declared in the enclosing function but
// outside the literal). A literal capturing nothing compiles to a static
// funcval and is free.
func capturedVars(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || seen[obj] {
			return true
		}
		if v.Pos() >= decl.Pos() && v.Pos() < decl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			seen[obj] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}
