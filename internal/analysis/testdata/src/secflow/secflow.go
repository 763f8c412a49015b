// Package keymat here is a hiplint fixture for the secflow analyzer: the
// package name puts it in the crypto set, so the source predicate
// (keymat.Draw) and the key-material parameter seeding fire. Each
// violation carries a // want expectation; the adjacent clean variants
// prove the analyzer stays quiet once the key material is handled
// correctly.
package keymat

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"log"
)

// Draw stands in for keymat.Draw: calls to it are secret sources by
// package and function name.
func Draw(n int) []byte { return make([]byte, n) }

// --- log and error-string sinks ---

func logsDirect() {
	k := Draw(16)
	fmt.Printf("key=%x\n", k) // want "key material .k. flows into fmt.Printf"
}

func logsViaPropagator() {
	k := Draw(16)
	s := hex.EncodeToString(k)
	log.Println(s) // want "key material .s. flows into log.Println"
}

func logsLengthOK() {
	k := Draw(16)
	fmt.Printf("drew %d bytes\n", len(k)) // the length is not the key
}

// logHelper formats its argument; b is not named like key material, so
// only the summary engine knows callers leak through it.
func logHelper(b []byte) {
	fmt.Println(string(b))
}

func logsViaHelper() {
	k := Draw(16)
	logHelper(k) // want "key material .k. passed to logHelper, which formats it"
}

// --- taint through a module interface method ---

type sink interface{ consume(b []byte) }

type logSink struct{}

func (logSink) consume(b []byte) { log.Println(string(b)) }

func leaksViaInterface(s sink) {
	k := Draw(8)
	s.consume(k) // want "key material .k. passed to logSink.consume, which formats it"
}

// --- variable-time comparisons ---

func comparesArray(key [16]byte, tag [16]byte) bool {
	return key == tag // want "variable-time"
}

func comparesViaBytesEqual(secret, other []byte) bool {
	return bytesEqual(secret, other) // want "passed to bytesEqual, which compares it in variable time"
}

// bytesEqual hides a short-circuiting comparison behind an innocuous
// name: its summary marks both parameters variable-compared.
func bytesEqual(a, b []byte) bool {
	return bytes.Equal(a, b)
}

// --- secret struct fields ---

// vault carries key material in fields whose names do not say so. The
// stores below, one field assignment and one composite literal, mark the
// classes "vault.pad" and "vault.seed" program-wide, so reading those
// fields is secret in every other function, where neither the receiver
// nor the field name gives it away.
type vault struct {
	seed  []byte
	pad   [16]byte
	label string
}

func newVault() *vault {
	return &vault{seed: Draw(32), label: "v"}
}

func padVault(v *vault) {
	v.pad = [16]byte(Draw(16))
}

func logsVaultFields(v *vault) {
	fmt.Println(v.label) // the label holds no key material
	fmt.Println(v.seed)  // want "key material .v.seed. flows into fmt.Println"
}

func comparesVaultPad(v *vault, other [16]byte) bool {
	return v.pad == other // want "variable-time"
}
