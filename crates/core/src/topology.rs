//! The synthesized NoC topology: switches, links, attachments and paths.

use crate::spec::MessageType;

/// A directed switch-to-switch physical link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Source switch index.
    pub from: usize,
    /// Destination switch index.
    pub to: usize,
    /// Accumulated payload bandwidth routed over the link, Gbps.
    pub bandwidth_gbps: f64,
    /// Flow indices routed over this link, in routing order.
    pub flows: Vec<usize>,
    /// Message class the link carries. Request and response traffic use
    /// disjoint links, which removes message-dependent deadlock (§VI).
    pub class: MessageType,
}

/// Per-flow route: the ordered list of switches the flow traverses.
/// (Core → first switch and last switch → core hops are implicit.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowPath {
    /// Switch sequence, at least one switch long.
    pub switches: Vec<usize>,
}

/// A complete synthesized topology for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Layer of each switch.
    pub switch_layer: Vec<u32>,
    /// Center position of each switch in its layer floorplan, mm.
    /// Filled by the placement step; `(0,0)` before that.
    pub switch_pos: Vec<(f64, f64)>,
    /// Switch each core attaches to (`core_attach[core] = switch`).
    pub core_attach: Vec<usize>,
    /// All directed switch-to-switch links.
    pub links: Vec<Link>,
    /// Route of every flow (`flow_paths[flow_index]`).
    pub flow_paths: Vec<FlowPath>,
    /// Switches inserted by the indirect-switch fallback (not connected to
    /// any core), if any.
    pub indirect_switches: Vec<usize>,
}

impl Topology {
    /// Number of switches.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switch_layer.len()
    }

    /// Cores attached to switch `s`.
    #[must_use]
    pub fn cores_of_switch(&self, s: usize) -> Vec<usize> {
        (0..self.core_attach.len()).filter(|&c| self.core_attach[c] == s).collect()
    }

    /// Input port count of switch `s`: one per attached core plus one per
    /// incoming switch link.
    #[must_use]
    pub fn input_ports(&self, s: usize) -> u32 {
        let core_ports = self.cores_of_switch(s).len() as u32;
        let link_ports = self.links.iter().filter(|l| l.to == s).count() as u32;
        core_ports + link_ports
    }

    /// Output port count of switch `s`.
    #[must_use]
    pub fn output_ports(&self, s: usize) -> u32 {
        let core_ports = self.cores_of_switch(s).len() as u32;
        let link_ports = self.links.iter().filter(|l| l.from == s).count() as u32;
        core_ports + link_ports
    }

    /// The larger of input and output port counts (the size that limits the
    /// switch's maximum frequency).
    #[must_use]
    pub fn switch_size(&self, s: usize) -> u32 {
        self.input_ports(s).max(self.output_ports(s))
    }

    /// Number of directed links crossing each adjacent-layer boundary,
    /// **including** vertical core-to-switch attachments. Index `b` counts
    /// crossings of the boundary between layers `b` and `b+1`. A link
    /// spanning several layers consumes one crossing on every boundary it
    /// passes (the TSV macros of Fig. 2).
    #[must_use]
    pub fn inter_layer_link_census(&self, core_layers: &[u32], layers: u32) -> Vec<u32> {
        let boundaries = layers.saturating_sub(1) as usize;
        let mut census = vec![0u32; boundaries];
        let span = |a: u32, b: u32, census: &mut Vec<u32>| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            for bd in lo..hi {
                census[bd as usize] += 1;
            }
        };
        for l in &self.links {
            span(self.switch_layer[l.from], self.switch_layer[l.to], &mut census);
        }
        for (core, &sw) in self.core_attach.iter().enumerate() {
            // A cross-layer core attachment drills one TSV macro per
            // boundary: the NI bundles both directions through it (§III).
            let (cl, sl) = (core_layers[core], self.switch_layer[sw]);
            if cl != sl {
                span(cl, sl, &mut census);
            }
        }
        census
    }

    /// Maximum crossing count over all adjacent-layer boundaries.
    #[must_use]
    pub fn max_inter_layer_links(&self, core_layers: &[u32], layers: u32) -> u32 {
        self.inter_layer_link_census(core_layers, layers).into_iter().max().unwrap_or(0)
    }

    /// Renders the topology as a compact human-readable description (used by
    /// the Fig. 13/14 experiment outputs).
    #[must_use]
    pub fn describe(&self, core_names: &[String]) -> String {
        let mut out = String::new();
        for s in 0..self.switch_count() {
            let cores: Vec<&str> =
                self.cores_of_switch(s).into_iter().map(|c| core_names[c].as_str()).collect();
            out.push_str(&format!(
                "switch {s} (layer {}, {}x{}): cores [{}]\n",
                self.switch_layer[s],
                self.input_ports(s),
                self.output_ports(s),
                cores.join(", ")
            ));
        }
        for l in &self.links {
            out.push_str(&format!(
                "link sw{} -> sw{}  {:.2} Gbps ({:?})\n",
                l.from, l.to, l.bandwidth_gbps, l.class
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch_topology() -> Topology {
        Topology {
            switch_layer: vec![0, 1],
            switch_pos: vec![(0.0, 0.0); 2],
            core_attach: vec![0, 0, 1, 1],
            links: vec![
                Link {
                    from: 0,
                    to: 1,
                    bandwidth_gbps: 3.2,
                    flows: vec![0],
                    class: MessageType::Request,
                },
                Link {
                    from: 1,
                    to: 0,
                    bandwidth_gbps: 1.6,
                    flows: vec![1],
                    class: MessageType::Response,
                },
            ],
            flow_paths: vec![
                FlowPath { switches: vec![0, 1] },
                FlowPath { switches: vec![1, 0] },
            ],
            indirect_switches: vec![],
        }
    }

    #[test]
    fn port_counting() {
        let t = two_switch_topology();
        // Switch 0: 2 cores + 1 incoming link = 3 inputs; 2 cores + 1
        // outgoing = 3 outputs.
        assert_eq!(t.input_ports(0), 3);
        assert_eq!(t.output_ports(0), 3);
        assert_eq!(t.switch_size(0), 3);
    }

    #[test]
    fn ill_census_counts_links_and_vertical_attachments() {
        let t = two_switch_topology();
        let core_layers = vec![0, 0, 1, 1];
        // Two switch links cross boundary 0; all cores attach in-layer.
        assert_eq!(t.inter_layer_link_census(&core_layers, 2), vec![2]);

        // Move core 2 to layer 0 while keeping its switch on layer 1: its
        // attachment adds one TSV-macro crossing.
        let core_layers2 = vec![0, 0, 0, 1];
        assert_eq!(t.inter_layer_link_census(&core_layers2, 2), vec![3]);
    }

    #[test]
    fn multi_layer_span_consumes_every_boundary() {
        let mut t = two_switch_topology();
        t.switch_layer = vec![0, 2];
        let census = t.inter_layer_link_census(&[0, 0, 2, 2], 3);
        assert_eq!(census, vec![2, 2], "each link crosses both boundaries");
    }

    #[test]
    fn describe_mentions_all_switches() {
        let t = two_switch_topology();
        let names: Vec<String> = (0..4).map(|i| format!("c{i}")).collect();
        let d = t.describe(&names);
        assert!(d.contains("switch 0"));
        assert!(d.contains("switch 1"));
        assert!(d.contains("c3"));
    }
}
