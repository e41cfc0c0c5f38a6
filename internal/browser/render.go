package browser

import (
	"fmt"
	"strconv"

	"jskernel/internal/dom"
	"jskernel/internal/sim"
)

// This file implements the renderer-side operations whose execution time
// carries the secrets that the paper's timing attacks measure: script
// parsing (cost ∝ bytes), image decoding and SVG filtering (cost ∝ pixels),
// :visited link repaint, and subnormal floating-point arithmetic.

// LoadScript loads a URL as a <script> element: the resource is fetched
// (cross-origin allowed — classic script inclusion) and then parsed on the
// calling thread, costing parse time proportional to its size. onload or
// onerror fires afterwards, exactly the sequence the van Goethem script
// parsing attack times.
func (g *Global) nativeLoadScript(url string, onload func(*Global), onerror func(*Global)) {
	b := g.browser
	res, err := b.Net.Fetch(url, b.Origin)
	if err != nil {
		if onerror != nil {
			g.thread.PostTask(g.thread.Now()+b.Profile.MessageLatency, onerror)
		}
		return
	}
	arriveAt := g.thread.Now() + res.Latency
	g.thread.PostTask(arriveAt, func(gg *Global) {
		// Parsing is synchronous main-thread work: the secret-bearing cost.
		gg.thread.advance(perKBCost(res.Resource.Bytes, b.Profile.ScriptParsePerKB))
		if onload != nil {
			onload(gg)
		}
	})
}

// LoadImage loads a URL as an <img>: fetch, then decode costing time
// proportional to the pixel count. onload receives the created element.
func (g *Global) nativeLoadImage(url string, onload func(*Global, *dom.Element), onerror func(*Global)) {
	b := g.browser
	res, err := b.Net.Fetch(url, b.Origin)
	if err != nil {
		if onerror != nil {
			g.thread.PostTask(g.thread.Now()+b.Profile.MessageLatency, onerror)
		}
		return
	}
	arriveAt := g.thread.Now() + res.Latency
	g.thread.PostTask(arriveAt, func(gg *Global) {
		kpx := float64(res.Resource.Width) * float64(res.Resource.Height) / 1000
		gg.thread.advance(sim.Duration(kpx * float64(b.Profile.ImageDecodePerKPx)))
		var el *dom.Element
		if gg.document != nil {
			el = gg.document.CreateElement("img")
			el.SetAttribute("src", url)
			el.SetAttribute("width", strconv.Itoa(res.Resource.Width))
			el.SetAttribute("height", strconv.Itoa(res.Resource.Height))
		}
		if onload != nil {
			onload(gg, el)
		}
	})
}

// ApplySVGFilter runs an SVG filter (e.g. feMorphology erode) over an
// element synchronously. Its cost scales with the element's pixel area —
// the secret the SVG filtering attack extracts via an implicit clock.
func (g *Global) ApplySVGFilter(el *dom.Element, filter string) {
	b := g.browser
	w, h := elementPixels(el)
	kpx := float64(w) * float64(h) / 1000
	cost := b.Profile.SVGFilterBase + sim.Duration(kpx*float64(b.Profile.SVGFilterPerKPx))
	if el != nil {
		el.SetStyle("filter", filter)
	}
	g.thread.advance(cost)
}

// elementPixels reads an element's width/height attributes (defaulting to
// a small box).
func elementPixels(el *dom.Element) (w, h int) {
	w, h = 100, 100
	if el == nil {
		return w, h
	}
	if s, ok := el.Attribute("width"); ok {
		if v, err := strconv.Atoi(s); err == nil {
			w = v
		}
	}
	if s, ok := el.Attribute("height"); ok {
		if v, err := strconv.Atoi(s); err == nil {
			h = v
		}
	}
	return w, h
}

// RenderLink paints an <a href=url>: repaint cost differs for visited
// links, the classic history-sniffing channel.
func (g *Global) RenderLink(url string) *dom.Element {
	b := g.browser
	cost := b.Profile.LinkRepaintBase
	color := "blue"
	if b.Visited(url) {
		cost += b.Profile.VisitedRepaint
		color = "purple"
	}
	g.thread.advance(cost)
	if g.document == nil {
		return nil
	}
	a := g.document.CreateElement("a")
	a.SetAttribute("href", url)
	a.SetStyle("color", color)
	return a
}

// AppendChild attaches child to parent with the renderer's append cost
// plus incremental layout proportional to the subtree size.
func (g *Global) AppendChild(parent, child *dom.Element) error {
	b := g.browser
	if err := parent.AppendChild(child); err != nil {
		return err
	}
	n := 0
	child.Walk(func(*dom.Element) { n++ })
	g.thread.advance(b.Profile.DOMAppend + sim.Duration(n)*b.Profile.LayoutPerElement)
	return nil
}

// FloatOps performs n floating-point multiplications. Subnormal operands
// take the slow microcode path — the timing difference the floating-point
// pixel-stealing attack exploits.
func (g *Global) FloatOps(n int, subnormal bool) {
	if n <= 0 {
		return
	}
	per := g.browser.Profile.FloatOpNormal
	if subnormal {
		per = g.browser.Profile.FloatOpSubnormal
	}
	g.thread.advance(sim.Duration(n) * per)
}

// StartCSSAnimation begins an animation on el; cb fires once per frame
// period with the frame index until StopCSSAnimation. This reproduces the
// "Fantastic Timers" CSS-animation implicit clock.
func (g *Global) nativeStartCSSAnimation(el *dom.Element, cb func(*Global, int)) int {
	if cb == nil {
		return 0
	}
	first := g.nextFrame()
	tm, h := g.newTimer(timerAnimation)
	tm.tick, tm.period, tm.at = cb, g.browser.Profile.FramePeriod, first
	if el != nil {
		el.SetStyle("animation", fmt.Sprintf("anim-%d", h))
	}
	return g.queueTimer(h, first)
}

// StopCSSAnimation cancels a running animation.
func (g *Global) nativeStopCSSAnimation(id int) {
	if slot := g.liveTimer(uint64(id)); slot >= 0 && g.timers[slot].kind == timerAnimation {
		g.freeTimer(slot)
	}
}

// PlayVideo starts playback of a video track with WebVTT cues firing every
// cue period — the Video/WebVTT implicit clock. It returns a stop function.
func (g *Global) nativePlayVideo(cueCb func(*Global, int)) (stop func()) {
	if cueCb == nil {
		return func() {}
	}
	period := g.browser.Profile.VideoCuePeriod
	first := g.thread.Now() + period
	tm, h := g.newTimer(timerCue)
	tm.tick, tm.period, tm.at = cueCb, period, first
	g.queueTimer(h, first)
	return func() {
		if slot := g.liveTimer(h); slot >= 0 {
			g.freeTimer(slot)
		}
	}
}

// LoadScript loads a URL as a <script> element through the bindings table.
func (g *Global) LoadScript(url string, onload func(*Global), onerror func(*Global)) {
	if g.browser.obsEvents {
		onload = g.obsLoadCB(onload, url, "script")
		onerror = g.obsLoadCB(onerror, url, "script-error")
	}
	g.bindings.LoadScript(url, onload, onerror)
}

// LoadImage loads a URL as an <img> through the bindings table.
func (g *Global) LoadImage(url string, onload func(*Global, *dom.Element), onerror func(*Global)) {
	if g.browser.obsEvents {
		onload = g.obsImageCB(onload, url)
		onerror = g.obsLoadCB(onerror, url, "image-error")
	}
	g.bindings.LoadImage(url, onload, onerror)
}

// StartCSSAnimation begins a per-frame animation through the bindings table.
func (g *Global) StartCSSAnimation(el *dom.Element, cb func(*Global, int)) int {
	if g.browser.obsEvents {
		cb = g.obsFrameCB(cb, "animation")
	}
	return g.bindings.StartCSSAnimation(el, cb)
}

// StopCSSAnimation cancels a running animation through the bindings table.
func (g *Global) StopCSSAnimation(id int) { g.bindings.StopCSSAnimation(id) }

// PlayVideo starts WebVTT cue playback through the bindings table.
func (g *Global) PlayVideo(cueCb func(*Global, int)) (stop func()) {
	if g.browser.obsEvents {
		cueCb = g.obsFrameCB(cueCb, "cue")
	}
	return g.bindings.PlayVideo(cueCb)
}

// DOMSetAttribute writes an element attribute through the bindings table,
// costing the engine's attribute-access time. Dromaeo's DOM attribute
// test hammers this path, which is where the paper's kernel shows its
// worst-case overhead.
func (g *Global) DOMSetAttribute(el *dom.Element, name, value string) {
	g.bindings.DOMSetAttribute(el, name, value)
}

// DOMGetAttribute reads an element attribute through the bindings table.
func (g *Global) DOMGetAttribute(el *dom.Element, name string) (string, bool) {
	return g.bindings.DOMGetAttribute(el, name)
}

func (g *Global) nativeDOMSetAttribute(el *dom.Element, name, value string) {
	if el == nil {
		return
	}
	g.thread.advance(g.browser.Profile.DOMAttrAccess)
	g.browser.access(g.thread, "dom", int64(el.Seq()), AccessWrite)
	el.SetAttribute(name, value)
}

func (g *Global) nativeDOMGetAttribute(el *dom.Element, name string) (string, bool) {
	if el == nil {
		return "", false
	}
	g.thread.advance(g.browser.Profile.DOMAttrAccess)
	g.browser.access(g.thread, "dom", int64(el.Seq()), 0)
	return el.Attribute(name)
}
