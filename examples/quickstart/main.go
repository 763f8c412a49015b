// Quickstart: two HIP hosts on localhost (real UDP sockets) perform the
// base exchange, establish a BEET-ESP tunnel, and exchange one HTTP
// request over an encrypted reliable stream — the minimal end-to-end use
// of the library's public API.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net/netip"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/hipudp"
	"hipcloud/internal/identity"
	"hipcloud/internal/microhttp"
)

func main() {
	// 1. Each host owns a public-key Host Identity; its HIT is its name.
	serverID := identity.MustGenerate(identity.AlgECDSA)
	clientID := identity.MustGenerate(identity.AlgECDSA)
	fmt.Printf("server HIT: %v\nclient HIT: %v\n", serverID.HIT(), clientID.HIT())

	// 2. Bring up two HIP stacks over UDP on localhost.
	mk := func(id *identity.HostIdentity, addr string) *hipudp.Stack {
		stack, err := hipudp.NewStack(hip.Config{Identity: id}, addr)
		if err != nil {
			log.Fatal(err)
		}
		return stack
	}
	server := mk(serverID, "127.0.0.1:10700")
	client := mk(clientID, "127.0.0.1:10701")
	defer server.Close()
	defer client.Close()

	// 3. Static peer resolution (what DNS HIP RRs provide in deployment).
	client.AddPeer(serverID.HIT(), netip.MustParseAddrPort("127.0.0.1:10700"))
	server.AddPeer(clientID.HIT(), netip.MustParseAddrPort("127.0.0.1:10701"))

	// 4. Serve HTTP over encrypted HIP streams.
	l, err := server.Listen(80)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				req, err := microhttp.ReadRequest(br)
				if err != nil {
					return
				}
				microhttp.WriteResponse(conn, &microhttp.Response{
					Status: 200,
					Body: []byte(fmt.Sprintf("hello %v, you asked for %s — served over ESP\n",
						conn.PeerHIT(), req.Path)),
				})
			}()
		}
	}()

	// 5. Dial by HIT: the base exchange runs transparently on first use.
	start := time.Now()
	conn, err := client.Dial(serverID.HIT(), 80, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Printf("connected (BEX + stream) in %v\n", time.Since(start).Round(time.Millisecond))

	resp, err := microhttp.RoundTrip(conn, bufio.NewReader(conn),
		&microhttp.Request{Method: "GET", Path: "/welcome"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTTP %d: %s", resp.Status, resp.Body)
}
