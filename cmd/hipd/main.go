// Command hipd is a minimal HIP daemon over real UDP: it generates (or
// loads) a host identity, prints its HIT, and either serves an encrypted
// echo service or connects to a peer and round-trips a message through
// the BEET-ESP tunnel. Two terminals on one machine demonstrate the full
// base exchange:
//
//	terminal 1:  hipd -listen 127.0.0.1:10500
//	terminal 2:  hipd -listen 127.0.0.1:10501 \
//	                -peer <HIT-from-terminal-1>@127.0.0.1:10500 \
//	                -msg "hello over hip"
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"strings"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/hipudp"
	"hipcloud/internal/identity"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:10500", "UDP address to bind")
	peer := flag.String("peer", "", "peer as HIT@host:port (client mode)")
	msg := flag.String("msg", "ping over hip", "message to send in client mode")
	alg := flag.String("alg", "ecdsa", "host identity algorithm: rsa|ecdsa|ed25519")
	flag.Parse()

	var a identity.Algorithm
	switch *alg {
	case "rsa":
		a = identity.AlgRSA
	case "ed25519":
		a = identity.AlgEd25519
	default:
		a = identity.AlgECDSA
	}
	id, err := identity.Generate(a)
	if err != nil {
		log.Fatalf("generating identity: %v", err)
	}
	stack, err := hipudp.NewStack(hip.Config{Identity: id}, *listen)
	if err != nil {
		log.Fatalf("starting HIP stack: %v", err)
	}
	defer stack.Close()
	fmt.Printf("hipd: HIT %v listening on %v (%v identity)\n", id.HIT(), stack.LocalAddr(), a)

	if *peer == "" {
		serve(stack)
		return
	}
	parts := strings.SplitN(*peer, "@", 2)
	if len(parts) != 2 {
		log.Fatalf("-peer must be HIT@host:port")
	}
	peerHIT, err := netip.ParseAddr(parts[0])
	if err != nil || !identity.IsHIT(peerHIT) {
		log.Fatalf("bad peer HIT %q", parts[0])
	}
	peerEP, err := netip.ParseAddrPort(parts[1])
	if err != nil {
		log.Fatalf("bad peer endpoint %q", parts[1])
	}
	stack.AddPeer(peerHIT, peerEP)

	start := time.Now()
	conn, err := stack.Dial(peerHIT, 7, 10*time.Second)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	fmt.Printf("hipd: base exchange + stream handshake in %v\n", time.Since(start).Round(time.Millisecond))
	if _, err := conn.Write([]byte(*msg)); err != nil {
		log.Fatalf("write: %v", err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	fmt.Printf("hipd: echo from %v: %q\n", conn.PeerHIT(), buf[:n])
	conn.Close()
}

// serve runs an encrypted echo service on stream port 7.
func serve(stack *hipudp.Stack) {
	l, err := stack.Listen(7)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Println("hipd: echo service on HIP stream port 7; ctrl-c to stop")
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				n, err := conn.Read(buf)
				if err != nil {
					return
				}
				fmt.Printf("hipd: %d bytes from %v\n", n, conn.PeerHIT())
				if _, err := conn.Write(buf[:n]); err != nil {
					return
				}
			}
		}()
	}
}
