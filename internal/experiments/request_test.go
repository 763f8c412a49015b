package experiments

import (
	"bufio"
	"testing"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/microhttp"
	"hipcloud/internal/netsim"
	"hipcloud/internal/rubis"
	"hipcloud/internal/secio"
)

// BenchmarkFig2Request times one Figure 2 request on a warm deployment:
// from the client through the proxy, the scenario's backend transport,
// the web tier and the database, and back, over one persistent client
// connection. make bench-smoke runs it with -benchmem, so its allocs/op
// is the host garbage the request path makes.
func BenchmarkFig2Request(b *testing.B) {
	for _, kind := range []secio.Kind{secio.Basic, secio.HIP, secio.SSL} {
		b.Run(kind.String(), func(b *testing.B) {
			d := Deploy(DeployConfig{Profile: cloud.EC2, Kind: kind, UseRSA: true, Seed: 1, WithLB: true})
			defer d.Sim.Shutdown()
			mix := rubis.NewMix(1, d.DB.NumItems(), d.DB.NumUsers())
			addr, port := d.FrontAddr()
			more := netsim.NewWaitQueue(d.Sim)
			todo, failed := 0, false
			d.Sim.Spawn("client", func(p *netsim.Proc) {
				conn, err := d.ClientT.Dial(p, addr, port)
				if err != nil {
					b.Errorf("dial: %v", err)
					failed = true
					return
				}
				br := bufio.NewReader(conn)
				req := microhttp.Request{Method: "GET", Headers: map[string]string{"Host": "rubis"}}
				var resp microhttp.Response
				for {
					for todo == 0 {
						more.Wait(p, 0)
					}
					req.Path = mix.Next()
					if err = microhttp.WriteRequest(conn, &req); err == nil {
						err = microhttp.ReadResponseInto(br, &resp)
					}
					if err != nil || resp.Status != 200 {
						b.Errorf("%s: status %d, %v", req.Path, resp.Status, err)
						failed = true
						return
					}
					todo--
				}
			})
			serve := func(n int) {
				todo = n
				more.WakeAll()
				for todo > 0 && !failed {
					d.Sim.Run(d.Sim.Now() + 10*time.Millisecond)
				}
			}
			serve(50) // warm-up: connections, pools, buffers
			b.ResetTimer()
			serve(b.N)
		})
	}
}
