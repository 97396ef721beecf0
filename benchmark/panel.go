package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/panel"
	"github.com/midas-graph/midas/internal/parallel"
	"github.com/midas-graph/midas/internal/telemetry"
)

// panelClient drives a panel.Server's http.Handler in-process, without
// a socket, wired like midas-serve (telemetry registry, kernel
// metrics).
type panelClient struct {
	srv *panel.Server
	h   http.Handler

	mu      sync.Mutex
	reports []midas.MaintenanceReport
}

// newPanel wraps eng. Handler() publishes the bootstrap snapshot
// (generation 1) and starts the maintenance pipeline.
func newPanel(eng *midas.Engine, opts midas.Options) *panelClient {
	c := &panelClient{srv: panel.New(eng, opts)}
	reg := telemetry.NewRegistry()
	c.srv.SetTelemetry(reg)
	eng.SetTelemetry(reg)
	iso.RegisterMetrics(reg)
	ged.RegisterMetrics(reg)
	catapult.RegisterMetrics(reg)
	parallel.RegisterMetrics(reg)
	c.srv.SetPostMaintain(func(rep midas.MaintenanceReport) error {
		c.mu.Lock()
		c.reports = append(c.reports, rep)
		c.mu.Unlock()
		return nil
	})
	c.h = c.srv.Handler()
	return c
}

// lastReport returns the report of the most recent applied batch.
func (c *panelClient) lastReport() midas.MaintenanceReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reports) == 0 {
		return midas.MaintenanceReport{}
	}
	return c.reports[len(c.reports)-1]
}

func (c *panelClient) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.srv.Close(ctx); err != nil {
		logf("closing panel: %v", err)
	}
}

// do serves one request and returns the recorded response.
func (c *panelClient) do(method, target, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec
}

func generationOf(rec *httptest.ResponseRecorder) (uint64, error) {
	return strconv.ParseUint(rec.Header().Get("X-Midas-Generation"), 10, 64)
}

// maintainResponse is the JSON body of a synchronous /maintain.
type maintainResponse struct {
	GraphletDistance float64 `json:"graphletDistance"`
	Major            bool    `json:"major"`
	Swaps            int     `json:"swaps"`
	Generation       uint64  `json:"generation"`
}

// maintain POSTs one batch synchronously.
func (c *panelClient) maintain(u graph.Update) (maintainResponse, error) {
	target := "/maintain"
	if len(u.Delete) > 0 {
		ids := make([]string, len(u.Delete))
		for i, id := range u.Delete {
			ids[i] = strconv.Itoa(id)
		}
		target += "?delete=" + strings.Join(ids, ",")
	}
	body := ""
	if len(u.Insert) > 0 {
		body = graph.Marshal(u.Insert)
	}
	rec := c.do(http.MethodPost, target, body)
	var out maintainResponse
	if rec.Code != http.StatusOK {
		return out, fmt.Errorf("/maintain: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return out, fmt.Errorf("/maintain: %w", err)
	}
	return out, nil
}

// queryResponse is the JSON body of /query.
type queryResponse struct {
	Matches    []int `json:"matches"`
	Candidates int   `json:"candidates"`
	Pruned     int   `json:"pruned"`
}

// decodeQuery decodes a /query response and the generation that
// served it.
func decodeQuery(rec *httptest.ResponseRecorder) (queryResponse, uint64, error) {
	var out queryResponse
	if rec.Code != http.StatusOK {
		return out, 0, fmt.Errorf("/query: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	gen, err := generationOf(rec)
	if err != nil {
		return out, 0, fmt.Errorf("/query: generation header: %w", err)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return out, 0, fmt.Errorf("/query: %w", err)
	}
	return out, gen, nil
}

// patterns GETs the served pattern set, rebuilt from each pattern's
// labels and edge list.
func (c *panelClient) patterns() ([]*graph.Graph, uint64, error) {
	rec := c.do(http.MethodGet, "/patterns", "")
	if rec.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("/patterns: status %d", rec.Code)
	}
	gen, err := generationOf(rec)
	if err != nil {
		return nil, 0, fmt.Errorf("/patterns: generation header: %w", err)
	}
	var body []struct {
		ID       int      `json:"id"`
		Vertices []string `json:"vertices"`
		Edges    [][2]int `json:"edges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return nil, 0, fmt.Errorf("/patterns: %w", err)
	}
	out := make([]*graph.Graph, 0, len(body))
	for _, p := range body {
		out = append(out, graph.FromEdges(p.ID, p.Vertices, p.Edges))
	}
	return out, gen, nil
}

// quality GETs the served set's self-reported quality.
func (c *panelClient) quality() (map[string]float64, error) {
	rec := c.do(http.MethodGet, "/quality", "")
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/quality: status %d", rec.Code)
	}
	var q map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		return nil, fmt.Errorf("/quality: %w", err)
	}
	return q, nil
}

// vars GETs the telemetry registry (/debug/vars).
func (c *panelClient) vars() map[string]interface{} {
	rec := c.do(http.MethodGet, "/debug/vars", "")
	var v map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		logf("/debug/vars: %v", err)
	}
	return v
}

// varSum sums a counter family or a histogram family's sums, children
// in sorted label order.
func varSum(v map[string]interface{}, name string) float64 {
	switch x := v[name].(type) {
	case float64:
		return x
	case map[string]interface{}:
		if s, ok := x["sum"].(float64); ok {
			return s
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t := 0.0
		for _, k := range keys {
			switch c := x[k].(type) {
			case float64:
				t += c
			case map[string]interface{}:
				if s, ok := c["sum"].(float64); ok {
					t += s
				}
			}
		}
		return t
	}
	return 0
}
