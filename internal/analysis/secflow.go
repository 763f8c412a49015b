package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SecFlow is the semantic secret-hygiene analyzer: it tracks key
// material from its sources — keymat stream draws and derivations, ECDH
// shared secrets, puzzle solutions, private-key fields, and []byte
// parameters whose name says they carry keys — through assignments,
// conversions, encoders and module-function summaries, and reports:
//
//   - flows into fmt/log calls or error strings (directly or through a
//     callee whose summary logs the parameter): a formatted secret ends
//     up in journals, crash dumps and bug reports;
//   - variable-time comparisons (bytes.Equal, reflect.DeepEqual, ==/!=
//     on strings or byte arrays) of secret-derived values, or — in a
//     crypto package — of anything named like an authenticator (MAC, ICV,
//     tag, digest, peer-echoed nonce): an attacker who can submit guesses
//     learns a prefix length per probe. Such comparisons must go through
//     hmac.Equal or subtle.ConstantTimeCompare.
//
// Whether keys are wiped is refereed at run time instead: keymat's
// test-binary ledger counts every key buffer it hands out until
// keymat.Zeroize clears it (DESIGN.md §5a).
//
// Secret-bearing struct fields are discovered program-wide: any store
// of tainted data into T.f marks the class "T.f" for every package, so
// a field filled by one function is protected in all the others. The
// engine is a may-analysis: copies count for taint (hex encoding a key
// is still the key), and unknown stdlib callees do not launder secrets.
var SecFlow = &Analyzer{
	Name: "secflow",
	Doc:  "key material flowing into logs or variable-time compares",
	Run:  runSecFlow,
}

// cryptoPkgs names the packages handling keys and authenticators, keyed
// by package name (fixtures re-declare these names under testdata).
var cryptoPkgs = map[string]bool{
	"esp": true, "keymat": true, "tlslite": true, "hip": true,
	"puzzle": true, "identity": true, "secio": true, "hipwire": true,
}

// sensitiveWords mark a value as authenticator-like when they appear in
// its name.
var sensitiveWords = []string{"mac", "icv", "tag", "digest", "sum", "hmac", "nonce", "echo", "finished"}

func isSensitiveName(name string) bool {
	l := strings.ToLower(name)
	for _, w := range sensitiveWords {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// exprName extracts the rightmost identifier-ish name from an expression:
// a.echoSent -> "echoSent", mac.Sum(nil) -> "Sum", tag[:n] -> "tag".
func exprName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.ParenExpr:
		return exprName(x.X)
	case *ast.SliceExpr:
		return exprName(x.X)
	case *ast.IndexExpr:
		return exprName(x.X)
	case *ast.CallExpr:
		return exprName(x.Fun)
	}
	return ""
}

// comparableSecretType limits the ==/!= rule to byte arrays and strings —
// the shapes key and authenticator material takes; integer tags and enum
// comparisons stay legal.
func comparableSecretType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isStringType(tv.Type) || isByteArrayType(tv.Type)
}

// secretParamName reports whether a []byte-ish parameter's name marks it
// as key material ("key", "encKey", "secret", "kij", "ticket", "priv").
// Public-key names are excluded.
func secretParamName(name string) bool {
	l := strings.ToLower(name)
	if strings.Contains(l, "pub") {
		return false
	}
	return strings.Contains(l, "key") || strings.Contains(l, "secret") ||
		l == "kij" || l == "ticket" || strings.HasPrefix(l, "priv")
}

// isByteArrayType reports whether t's underlying type is [N]byte.
func isByteArrayType(t types.Type) bool {
	a, ok := t.Underlying().(*types.Array)
	if !ok {
		return false
	}
	b, ok := a.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func byteish(t types.Type) bool { return isByteSliceType(t) || isByteArrayType(t) }

// containsByteData reports whether t directly owns byte storage: []byte,
// [N]byte, or a struct, array or map value embedding either. Pointers
// stop the walk: the pointee is not the value's own storage.
func containsByteData(t types.Type) bool { return containsByteData1(t, 0) }

func containsByteData1(t types.Type, depth int) bool {
	if depth > 6 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Array:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return b.Kind() == types.Byte
		}
		return containsByteData1(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsByteData1(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Map:
		return containsByteData1(u.Elem(), depth+1)
	}
	return false
}

// exprTypeOf resolves an expression's static type, falling back to the
// declared object for fresh := identifiers (which have no Types entry).
func exprTypeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// fieldClassOf names the field a selector reads/writes, qualified by the
// owning named type: a.keys on *hip.Association → "Association.keys".
// Package-qualified selectors and unnamed types return "".
func fieldClassOf(info *types.Info, sel *ast.SelectorExpr) string {
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return n.Obj().Name() + "." + sel.Sel.Name
}

// secretFieldClasses computes (once per program) the set of "Type.field"
// classes observed to hold secret data anywhere in the program, iterated
// to a fixpoint so a class established in one package taints reads of
// that field everywhere.
func (p *Program) secretFieldClasses() map[string]bool {
	if p.secretClasses != nil {
		return p.secretClasses
	}
	classes := map[string]bool{}
	for round := 0; round < 8; round++ {
		grew := false
		for _, pkg := range p.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					w := newSecWalker(p, pkg, fd, classes)
					w.collect()
					for c := range w.newClasses {
						if !classes[c] {
							classes[c] = true
							grew = true
						}
					}
				}
			}
		}
		if !grew {
			break
		}
	}
	p.secretClasses = classes
	return classes
}

// secWalker analyzes one function: a collect phase grows the chain-taint
// and alias sets to a fixpoint, then a report phase walks the body once
// flagging sinks.
type secWalker struct {
	prog    *Program
	pkg     *Package
	info    *types.Info
	fd      *ast.FuncDecl
	classes map[string]bool

	taint      map[string]bool   // access chains carrying secrets
	aliasOf    map[string]string // local name → chain it was read from
	newClasses map[string]bool

	pass *Pass // nil during class computation
}

func newSecWalker(prog *Program, pkg *Package, fd *ast.FuncDecl, classes map[string]bool) *secWalker {
	w := &secWalker{
		prog: prog, pkg: pkg, info: pkg.Info, fd: fd, classes: classes,
		taint:      map[string]bool{},
		aliasOf:    map[string]string{},
		newClasses: map[string]bool{},
	}
	// Seed: []byte-ish parameters named like key material are secret in
	// crypto packages (semantic taint has no cross-function argument
	// propagation; the naming convention closes that gap).
	if cryptoPkgs[pkg.Name] {
		if fd.Type.Params != nil {
			for _, fld := range fd.Type.Params.List {
				for _, name := range fld.Names {
					obj := pkg.Info.Defs[name]
					if obj != nil && byteish(obj.Type()) && secretParamName(name.Name) {
						w.taint[name.Name] = true
					}
				}
			}
		}
	}
	return w
}

// resolveAlias rewrites a chain's leading segment through the alias map:
// with s := c.m[k], the chain "s.ticket" resolves to "c.m.ticket".
func (w *secWalker) resolveAlias(c string) string {
	for i := 0; i < 4; i++ {
		head, rest, ok := strings.Cut(c, ".")
		tgt, has := w.aliasOf[head]
		if !has {
			return c
		}
		if !ok {
			c = tgt
		} else {
			c = tgt + "." + rest
		}
	}
	return c
}

// chainSecret reports whether the chain e reads from is tainted, testing
// every prefix (a tainted "a.keys" taints "a.keys.HIPMacOut" but not
// "a").
func (w *secWalker) chainSecret(e ast.Expr) bool {
	c, base := rootChain(w.info, e)
	if base == nil {
		return false
	}
	for _, q := range []string{c, w.resolveAlias(c)} {
		for {
			if w.taint[q] {
				return true
			}
			i := strings.LastIndexByte(q, '.')
			if i < 0 {
				break
			}
			q = q[:i]
		}
	}
	return false
}

// secret reports whether e's value may carry key material.
func (w *secWalker) secret(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return w.secretCall(x)
	case *ast.BinaryExpr:
		return w.secret(x.X) || w.secret(x.Y)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.secret(el) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return w.secret(x.X)
	case *ast.StarExpr:
		return w.secret(x.X)
	case *ast.SliceExpr:
		return w.secret(x.X)
	case *ast.IndexExpr:
		return w.secret(x.X)
	case *ast.TypeAssertExpr:
		return w.secret(x.X)
	case *ast.SelectorExpr:
		if c := fieldClassOf(w.info, x); c != "" && w.classes[c] {
			return true
		}
		if secretFieldNames[x.Sel.Name] && cryptoPkgs[w.pkg.Name] {
			return true
		}
		return w.chainSecret(x)
	case *ast.Ident:
		return w.chainSecret(x)
	}
	return false
}

func (w *secWalker) secretCall(call *ast.CallExpr) bool {
	if tv, ok := w.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.secret(call.Args[0]) // conversion
	}
	if isBuiltinCall(w.info, call, "len") || isBuiltinCall(w.info, call, "cap") {
		return false
	}
	if isBuiltinCall(w.info, call, "append") {
		for _, a := range call.Args {
			if w.secret(a) {
				return true
			}
		}
		return false
	}
	if _, ok := isSecretSource(w.info, call); ok {
		return true
	}
	fn := calleeFunc(w.info, call)
	if fn != nil && isTaintPropagator(fn) {
		for _, a := range call.Args {
			if w.secret(a) {
				return true
			}
		}
		return false
	}
	for _, cand := range w.prog.resolveCall(w.info, call) {
		sum := w.prog.SummaryOf(cand)
		if sum == nil {
			continue
		}
		if sum.ReturnsSecret {
			return true
		}
		if sum.TaintsReturn {
			for _, a := range callArgsWithRecv(call, cand) {
				if a != nil && w.secret(a) {
					return true
				}
			}
		}
	}
	return false
}

// collect grows taint/alias to a fixpoint over the body.
func (w *secWalker) collect() {
	for round := 0; round < 8; round++ {
		before := len(w.taint) + len(w.aliasOf) + len(w.newClasses)
		ast.Inspect(w.fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				w.collectAssign(x)
			case *ast.CompositeLit:
				w.collectComposite(x)
			}
			return true
		})
		if len(w.taint)+len(w.aliasOf)+len(w.newClasses) == before {
			break
		}
	}
}

func (w *secWalker) collectAssign(as *ast.AssignStmt) {
	rhsFor := func(i int) ast.Expr {
		if len(as.Rhs) == len(as.Lhs) {
			return as.Rhs[i]
		}
		if len(as.Rhs) == 1 {
			return as.Rhs[0]
		}
		return nil
	}
	for i, lhs := range as.Lhs {
		rhs := rhsFor(i)
		if rhs == nil {
			continue
		}
		// Alias: a plain local bound to a readable chain.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if rc, rbase := rootChain(w.info, rhs); rbase != nil && rc != id.Name {
				w.aliasOf[id.Name] = w.resolveAlias(rc)
			}
		}
		if !w.secret(rhs) {
			continue
		}
		// Only types that can physically carry key bytes take taint: in a
		// tuple assignment from one secret-returning call, the []byte
		// result is tainted and the error is not.
		if !taintCarrier(exprTypeOf(w.info, lhs)) {
			continue
		}
		lc, lbase := rootChain(w.info, lhs)
		if lbase == nil {
			continue
		}
		w.taint[lc] = true
		w.taint[w.resolveAlias(lc)] = true
		if sel := innerSelector(lhs); sel != nil {
			if c := fieldClassOf(w.info, sel); c != "" {
				w.newClasses[c] = true
			}
		}
	}
}

// collectComposite records classes for struct literals whose fields are
// filled with secrets (AssociationKeys{HIPEncOut: draw(...), ...}).
func (w *secWalker) collectComposite(cl *ast.CompositeLit) {
	tv, ok := w.info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range cl.Elts {
		var fieldName string
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				fieldName = id.Name
			}
			val = kv.Value
		} else if i < st.NumFields() {
			fieldName = st.Field(i).Name()
		}
		if fieldName != "" && w.secret(val) {
			w.newClasses[named.Obj().Name()+"."+fieldName] = true
		}
	}
}

// innerSelector unwraps index/slice/star/paren layers of an lvalue down
// to the selector being written through, or nil.
func innerSelector(e ast.Expr) *ast.SelectorExpr {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x
	case *ast.IndexExpr:
		return innerSelector(x.X)
	case *ast.SliceExpr:
		return innerSelector(x.X)
	case *ast.StarExpr:
		return innerSelector(x.X)
	case *ast.ParenExpr:
		return innerSelector(x.X)
	}
	return nil
}

// exprDesc renders an expression for a diagnostic: its access chain when
// it has one, else a generic label.
func (w *secWalker) exprDesc(e ast.Expr) string {
	if c, base := rootChain(w.info, e); base != nil {
		return c
	}
	return "value"
}

func runSecFlow(pass *Pass) {
	classes := pass.Prog.secretFieldClasses()
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := newSecWalker(pass.Prog, pass.Pkg, fd, classes)
			w.pass = pass
			w.collect()
			w.report()
		}
	}
}

func (w *secWalker) report() {
	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			w.reportCall(x)
		case *ast.BinaryExpr:
			if (x.Op == token.EQL || x.Op == token.NEQ) &&
				(comparableSecretType(w.info, x.X) || comparableSecretType(w.info, x.Y)) {
				w.reportVarTime(x.Pos(), x.Op.String(), x.X, x.Y)
			}
		}
		return true
	})
}

// reportVarTime is the one variable-time-compare sink: op over operands
// is reported, once, when an operand is secret by dataflow or — in a
// crypto package — named like an authenticator.
func (w *secWalker) reportVarTime(pos token.Pos, op string, operands ...ast.Expr) {
	for _, e := range operands {
		desc := ""
		switch {
		case w.secret(e):
			desc = w.exprDesc(e)
		case cryptoPkgs[w.pkg.Name] && isSensitiveName(exprName(e)):
			desc = exprName(e)
		default:
			continue
		}
		w.pass.Reportf(pos, "%s on %q is variable-time; compare key material and authenticators with hmac.Equal or subtle.ConstantTimeCompare", op, desc)
		return
	}
}

func (w *secWalker) reportCall(call *ast.CallExpr) {
	info := w.info
	fn := calleeFunc(info, call)
	if fn != nil && isLogSink(fn) {
		for _, a := range call.Args {
			if w.secret(a) {
				w.pass.Reportf(a.Pos(), "key material (%s) flows into %s.%s; secrets must never be formatted into logs or error strings", w.exprDesc(a), fn.Pkg().Name(), fn.Name())
			}
		}
		return
	}
	if fn != nil && ((fn.Name() == "Equal" && pkgPathOf(fn) == "bytes") || (fn.Name() == "DeepEqual" && pkgPathOf(fn) == "reflect")) {
		w.reportVarTime(call.Pos(), fn.Pkg().Name()+"."+fn.Name(), call.Args...)
		return
	}

	// Interprocedural sinks through module callees.
	for _, cand := range w.prog.resolveCall(info, call) {
		sum := w.prog.SummaryOf(cand)
		if sum == nil {
			continue
		}
		name := cand.Name()
		if r := recvTypeName(cand); r != "" {
			name = r + "." + name
		}
		for pi, arg := range callArgsWithRecv(call, cand) {
			if arg == nil || !w.secret(arg) {
				continue
			}
			facts := sum.paramFacts(pi)
			if facts&ParamLogged != 0 {
				w.pass.Reportf(arg.Pos(), "key material (%s) passed to %s, which formats it into a log or error string", w.exprDesc(arg), name)
			}
			if facts&ParamVarCompared != 0 {
				w.pass.Reportf(arg.Pos(), "key material (%s) passed to %s, which compares it in variable time; use hmac.Equal or subtle.ConstantTimeCompare", w.exprDesc(arg), name)
			}
		}
	}
}
