//go:build !amd64

package keymat

// ctrAsm is false: only amd64 has the AES-NI kernel, and ctrXor runs the
// portable loop.
var ctrAsm = false

func (c *ctrHMAC) expandKey([]byte) {}

func (c *ctrHMAC) ctrXorAsm(dst, src []byte) { panic("keymat: no AES-NI kernel on this platform") }
