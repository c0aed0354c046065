package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"openei"
	"openei/internal/gateway"
	"openei/internal/libei"
	"openei/internal/nn"
	"openei/internal/obs"
	"openei/internal/serving"
)

// device is the hardware profile of every benchmark node: openei-server's
// default.
const device = "rpi3"

// stack is the real serving stack in one process: nodes behind a gateway,
// each on its own loopback listener, and the typed client that drives it.
type stack struct {
	w       *workload
	rec     *recorder // nil unless this is the traced run's wrapped stack
	nodes   []*openei.Node
	urls    []string // node base URLs
	gw      *gateway.Gateway
	client  *libei.Client
	servers []*http.Server
	serving sync.WaitGroup // the listeners' Serve goroutines

	conns *http.Transport // the client's keep-alive connections to the gateway
}

// serve starts h on a fresh loopback port and returns its base URL.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed from close
	}()
	return "http://" + ln.Addr().String(), nil
}

// boot builds the workload's models from the fixed weight seed and brings
// the stack up: nodes with the stock serving config (plus the workload's
// tenant classes) and a sample-rate-0 tracer as openei-server attaches,
// then a stock static-fleet gateway, health-checked. With a recorder the
// benchmark's span wrappers are installed at the four public seams.
func boot(w *workload, rec *recorder) (*stack, error) {
	models, err := buildModels(w)
	if err != nil {
		return nil, err
	}
	s := &stack{w: w, rec: rec}
	if err := s.start(models); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(models []*nn.Model) error {
	w, rec := s.w, s.rec
	var cfg openei.ServingConfig
	for _, t := range w.tenants {
		cfg.Tenants = append(cfg.Tenants, serving.TenantConfig{Name: t.name, Priority: t.priority, Weight: 1})
	}
	for i := 0; i < w.nodes; i++ {
		id := fmt.Sprintf("bench-%d", i+1)
		node, err := openei.New(openei.Config{NodeID: id, Device: device, Serving: cfg})
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, node)
		node.Server.SetTracer(obs.NewTracer(obs.Config{Source: id}))
		for _, m := range models {
			if err := node.LoadModelBackend(m, w.backend); err != nil {
				return err
			}
		}
		h := node.Handler()
		if rec != nil {
			node.Server.SetInferer(&tracedInferer{rec: rec, next: node.Serving})
			h = rec.nodeHandler(h)
		}
		url, err := s.serve(h)
		if err != nil {
			return err
		}
		s.urls = append(s.urls, url)
	}

	gwCfg := gateway.Config{Nodes: s.urls}
	if rec != nil {
		gwCfg.Transport = &upstreamTransport{rec: rec, base: http.DefaultTransport}
	}
	gw, err := gateway.New(gwCfg)
	if err != nil {
		return err
	}
	s.gw = gw
	gw.Start()
	if healthy := gw.Metrics().HealthyNodes; healthy != w.nodes {
		return fmt.Errorf("gateway sees %d of %d nodes healthy", healthy, w.nodes)
	}
	var front http.Handler = gw
	if rec != nil {
		front = rec.handler(spanGateway, front)
	}
	url, err := s.serve(front)
	if err != nil {
		return err
	}

	// One keep-alive connection per client goroutine.
	s.conns = http.DefaultTransport.(*http.Transport).Clone()
	s.conns.MaxIdleConnsPerHost = w.workers()
	s.client = libei.NewClient(url)
	s.client.HTTPClient.Transport = s.conns
	if rec != nil {
		s.client.HTTPClient.Transport = &clientTransport{base: s.conns}
	}
	return nil
}

// close tears the stack down and waits for its goroutines.
func (s *stack) close() {
	if s.conns != nil {
		s.conns.CloseIdleConnections()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	s.serving.Wait()
	for _, n := range s.nodes {
		n.Close()
	}
	// The stock gateway talks to its nodes over the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// engineStats snapshots every node's serving counters, in node order.
func (s *stack) engineStats() [][]serving.ModelStats {
	out := make([][]serving.ModelStats, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.Serving.Stats()
	}
	return out
}

// infer sends one request through the gateway with the typed client.
func (s *stack) infer(ctx context.Context, p pick, pools []pool) (libei.InferResult, error) {
	tenant := ""
	if p.tenant >= 0 {
		tenant = s.w.tenants[p.tenant].name
	}
	return s.client.InferAs(ctx, tenant, s.w.models[p.model].name, pools[p.model].inputs[p.input], 0)
}
