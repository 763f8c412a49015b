// Command hipproxy is a real reverse HTTP proxy demonstrating the paper's
// end-to-middle deployment on a live machine: consumers speak plain HTTP
// to the front TCP port; the proxy forwards each request to backend web
// servers over HIP-protected streams (ESP over UDP), round-robin.
//
// A self-contained demo runs the backends in-process:
//
//	hipproxy -front 127.0.0.1:8080 -backends 2
//	curl http://127.0.0.1:8080/
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/hipudp"
	"hipcloud/internal/identity"
	"hipcloud/internal/microhttp"
)

type backend struct {
	name  string
	hit   netip.Addr
	stack *hipudp.Stack
}

func main() {
	front := flag.String("front", "127.0.0.1:8080", "plain HTTP front address")
	nBack := flag.Int("backends", 2, "in-process demo backends")
	basePort := flag.Int("baseport", 10600, "first UDP port for HIP stacks")
	flag.Parse()

	// Proxy's own HIP stack.
	proxyStack := newStack("proxy", fmt.Sprintf("127.0.0.1:%d", *basePort))
	var backends []*backend
	for i := 0; i < *nBack; i++ {
		name := fmt.Sprintf("web%d", i+1)
		b := &backend{name: name, stack: newStack(name, fmt.Sprintf("127.0.0.1:%d", *basePort+1+i))}
		b.hit = b.stack.Host().HIT()
		proxyStack.AddPeer(b.hit, netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", *basePort+1+i)))
		b.stack.AddPeer(proxyStack.Host().HIT(), netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", *basePort)))
		backends = append(backends, b)
		go serveBackend(b)
	}

	ln, err := net.Listen("tcp", *front)
	if err != nil {
		log.Fatalf("front listen: %v", err)
	}
	fmt.Printf("hipproxy: plain HTTP on %s -> %d backends over HIP\n", *front, len(backends))
	for _, b := range backends {
		fmt.Printf("  backend %s HIT %v\n", b.name, b.hit)
	}

	var mu sync.Mutex
	next := 0
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			br := bufio.NewReader(c)
			for {
				req, err := microhttp.ReadRequest(br)
				if err != nil {
					return
				}
				mu.Lock()
				b := backends[next%len(backends)]
				next++
				mu.Unlock()
				resp := forward(proxyStack, b, req)
				if err := microhttp.WriteResponse(c, resp); err != nil {
					return
				}
				if req.WantsClose() {
					return
				}
			}
		}(c)
	}
}

func forward(stack *hipudp.Stack, b *backend, req *microhttp.Request) *microhttp.Response {
	conn, err := stack.Dial(b.hit, 80, 5*time.Second)
	if err != nil {
		return &microhttp.Response{Status: 502, Body: []byte(err.Error())}
	}
	defer conn.Close()
	resp, err := microhttp.RoundTrip(conn, bufio.NewReader(conn), req)
	if err != nil {
		return &microhttp.Response{Status: 502, Body: []byte(err.Error())}
	}
	return resp
}

func newStack(name, listen string) *hipudp.Stack {
	id := identity.MustGenerate(identity.AlgECDSA)
	stack, err := hipudp.NewStack(hip.Config{Identity: id, DomainID: name}, listen)
	if err != nil {
		log.Fatalf("%s: bind %s: %v", name, listen, err)
	}
	return stack
}

// serveBackend answers HTTP over HIP streams with a tiny status page.
func serveBackend(b *backend) {
	l, err := b.stack.Listen(80)
	if err != nil {
		log.Fatalf("%s: %v", b.name, err)
	}
	var served atomic.Uint64 // one handler goroutine per conn
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			for {
				req, err := microhttp.ReadRequest(br)
				if err != nil {
					return
				}
				body := fmt.Sprintf("<html><body>served by %s over HIP (request #%d, path %s, peer %v)</body></html>\n",
					b.name, served.Add(1), req.Path, conn.PeerHIT())
				resp := &microhttp.Response{
					Status:  200,
					Headers: map[string]string{"Content-Type": "text/html", "X-Served-By": b.name},
					Body:    []byte(body),
				}
				if err := microhttp.WriteResponse(conn, resp); err != nil {
					return
				}
				if req.WantsClose() {
					return
				}
			}
		}()
	}
}
