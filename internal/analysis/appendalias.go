package analysis

import (
	"go/ast"
	"strings"
)

// AppendAlias flags append-style crypto/marshal calls whose destination
// can alias one of their sources. esp.SealAppend/OpenAppend (and the
// wrappers both drivers call, hip.Host.SealDataAppend/OpenDataAppend, the
// header-carrying seals esp.SealHdrAppend and hip.Host.SealDataHdrAppend,
// and tlslite's sealRecordAppend) write ciphertext into dst's spare
// capacity while reading their sources; if dst and a source re-slice the
// same backing array —
//
//	sa.SealAppend(b[:0], b[n:])
//
// — the encryptor tramples the plaintext it is still reading, silently
// corrupting the packet (DESIGN.md §5a "payload must not overlap dst's
// spare capacity"). Likewise Segment.MarshalInto(b) copies the segment's
// payload into b, so b must not be the payload itself.
//
// The check is the rootChain approximation: two slice expressions are
// treated as potentially aliasing when they bottom out in the same
// variable/field chain. Distinct variables are assumed distinct arrays.
var AppendAlias = &Analyzer{
	Name: "appendalias",
	Doc:  "append-API calls (SealAppend/OpenAppend/MarshalInto) whose dst may alias src",
	Run:  runAppendAlias,
}

// appendAPI names the dst argument of an append-style API and the source
// arguments it reads while it writes dst's spare capacity.
type appendAPI struct {
	dst  int
	srcs []int
}

// appendAPIs maps callee names to the argument indices of the module's
// append-style APIs.
var appendAPIs = map[string]appendAPI{
	"SealAppend":        {0, []int{1}},
	"SealHdrAppend":     {0, []int{1, 2}},
	"OpenAppend":        {0, []int{1}},
	"OpenDataAppend":    {0, []int{1}},
	"SealDataAppend":    {0, []int{2}},
	"SealDataHdrAppend": {0, []int{2, 3}},
	"sealRecordAppend":  {0, []int{1}},
}

func runAppendAlias(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || !strings.HasPrefix(pkgPathOf(fn), "hipcloud/") {
				return true
			}
			if api, ok := appendAPIs[fn.Name()]; ok {
				for _, i := range api.srcs {
					if i >= len(call.Args) {
						continue
					}
					dst, src := call.Args[api.dst], call.Args[i]
					if sameRoot(info, dst, src) {
						chain, _ := rootChain(info, dst)
						pass.Reportf(call.Pos(), "%s: dst and src both re-slice %q and may share a backing array; the seal would trample its own input", fn.Name(), chain)
					}
				}
				return true
			}
			if fn.Name() == "MarshalInto" && len(call.Args) == 1 {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					_, recvBase := rootChain(info, sel.X)
					_, argBase := rootChain(info, call.Args[0])
					if recvBase != nil && recvBase == argBase {
						pass.Reportf(call.Pos(), "MarshalInto destination is derived from the receiver; it may alias the segment payload being copied")
					}
				}
			}
			return true
		})
	}
}
