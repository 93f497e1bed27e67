//! Topology extraction: the per-layer statistics the bounds consume.
//!
//! A central point of the paper is that the Forward Error Propagation bound
//! requires "only looking at the topology of the network" — never running
//! it. This module is that "look": it reduces a trained [`Mlp`] to the tuple
//! `(L, (N_l), (w_m^(l)), K, sup ϕ)` that `neurofail-core` feeds into
//! Theorems 1–5.

use crate::network::Mlp;

/// Per-layer statistics for paper layer `l` (code index `l-1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStats {
    /// Number of neurons `N_l`.
    pub neurons: usize,
    /// Fan-in (`N_{l-1}` or `d` for the first layer).
    pub fan_in: usize,
    /// `w_m^(l)` over all incoming synapses, bias synapses included — the
    /// statistic for *synapse*-failure bounds (Theorem 4), where bias
    /// synapses can fail too.
    pub w_max: f64,
    /// `w_m^(l)` excluding bias synapses — the error-propagation factor for
    /// *neuron*-failure bounds (constant neurons carry no upstream error).
    pub w_max_nonbias: f64,
    /// Receptive-field size `R(l)` for convolutional layers (Section VI);
    /// `None` means full fan-in (dense).
    pub receptive_field: Option<usize>,
    /// Lipschitz constant of this layer's activation.
    pub lipschitz: f64,
    /// `sup |ϕ|` if the activation is bounded.
    pub sup_activation: Option<f64>,
}

/// Statistics of the output node's incoming synapse set (`w^(L+1)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputStats {
    /// Fan-in `N_L`.
    pub fan_in: usize,
    /// `w_m^(L+1)`.
    pub w_max: f64,
}

/// Complete topological summary of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Input dimension `d`.
    pub input_dim: usize,
    /// One entry per paper layer `1..=L`.
    pub layers: Vec<LayerStats>,
    /// The output node's synapse stats.
    pub output: OutputStats,
}

impl Topology {
    /// Extract the summary from a network.
    pub fn of(net: &Mlp) -> Self {
        let layers = net
            .layers()
            .iter()
            .map(|l| LayerStats {
                neurons: l.out_dim(),
                fan_in: l.in_dim(),
                w_max: l.max_abs_weight(),
                w_max_nonbias: l.max_abs_weight_nonbias(),
                receptive_field: l.receptive_field(),
                lipschitz: l.activation().lipschitz(),
                sup_activation: l.activation().sup_abs(),
            })
            .collect();
        Topology {
            input_dim: net.input_dim(),
            layers,
            output: OutputStats {
                fan_in: net.layers().last().map(|l| l.out_dim()).unwrap_or(0),
                w_max: net.output_max_abs_weight(),
            },
        }
    }

    /// Number of layers `L`.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The network-level Lipschitz constant `K = max_l K_l`.
    pub fn lipschitz(&self) -> f64 {
        self.layers.iter().map(|l| l.lipschitz).fold(0.0, f64::max)
    }

    /// `sup |ϕ|` if **all** activations are bounded (the crash-fault `C`),
    /// else `None`.
    pub fn sup_activation(&self) -> Option<f64> {
        self.layers
            .iter()
            .map(|l| l.sup_activation)
            .try_fold(0.0f64, |m, s| s.map(|v| m.max(v)))
    }

    /// Render a compact ASCII diagram in the style of the paper's Figure 1:
    /// input clients (dotted), `L` layers, output client.
    pub fn ascii_diagram(&self) -> String {
        let mut s = String::new();
        let widths: Vec<usize> = self.layers.iter().map(|l| l.neurons).collect();
        let max_n = widths
            .iter()
            .copied()
            .chain([self.input_dim, 1])
            .max()
            .unwrap_or(1);
        let rows = max_n;
        let render_col = |n: usize, glyph: char| -> Vec<String> {
            let mut col = vec!["   ".to_string(); rows];
            let pad = (rows - n) / 2;
            for slot in col.iter_mut().skip(pad).take(n) {
                *slot = format!(" {glyph} ");
            }
            col
        };
        let mut cols = vec![render_col(self.input_dim, '◌')];
        for &w in &widths {
            cols.push(render_col(w, '●'));
        }
        cols.push(render_col(1, '◌'));
        for r in 0..rows {
            for col in &cols {
                s.push_str(&col[r]);
                s.push_str("  ");
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "d={} | layers: {} | output client\n",
            self.input_dim,
            widths
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join("-"),
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::conv::Conv1dLayer;
    use crate::layer::DenseLayer;
    use crate::network::Layer;
    use neurofail_tensor::Matrix;

    fn net() -> Mlp {
        Mlp::new(
            vec![
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(3, 2, vec![0.5, -0.8, 0.1, 0.2, 0.0, 0.3]),
                    vec![0.9, 0.0, 0.0],
                    Activation::Sigmoid { k: 2.0 },
                )),
                Layer::Conv1d(Conv1dLayer::new(
                    Matrix::from_vec(1, 2, vec![0.4, -0.6]),
                    vec![],
                    Activation::Sigmoid { k: 1.5 },
                    3,
                )),
            ],
            vec![0.7, -0.2],
            0.0,
        )
    }

    #[test]
    fn extracts_paper_statistics() {
        let t = Topology::of(&net());
        assert_eq!(t.input_dim, 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.layers[0].neurons, 3);
        assert_eq!(t.layers[0].fan_in, 2);
        // Bias 0.9 dominates the dense layer's w_max but not nonbias.
        assert_eq!(t.layers[0].w_max, 0.9);
        assert_eq!(t.layers[0].w_max_nonbias, 0.8);
        assert_eq!(t.layers[0].receptive_field, None);
        assert_eq!(t.layers[1].receptive_field, Some(2));
        assert_eq!(t.layers[1].w_max, 0.6);
        assert_eq!(t.output.fan_in, 2);
        assert_eq!(t.output.w_max, 0.7);
        assert_eq!(t.lipschitz(), 2.0);
        assert_eq!(t.sup_activation(), Some(1.0));
    }

    #[test]
    fn unbounded_activation_yields_no_sup() {
        let m = Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::zeros(2, 2),
                vec![],
                Activation::Relu,
            ))],
            vec![0.0, 0.0],
            0.0,
        );
        assert_eq!(Topology::of(&m).sup_activation(), None);
    }

    #[test]
    fn ascii_diagram_mentions_shape() {
        let t = Topology::of(&net());
        let d = t.ascii_diagram();
        assert!(d.contains("d=2"));
        assert!(d.contains("3-2"));
        // 3 = widest column; 2 glyph kinds present.
        assert!(d.contains('●'));
        assert!(d.contains('◌'));
    }

    #[test]
    fn figure1_shape_renders() {
        // The paper's Figure 1: d=3, L=3, N=(4,3,4).
        let mk = |rows: usize, cols: usize| {
            Layer::Dense(DenseLayer::new(
                Matrix::zeros(rows, cols),
                vec![],
                Activation::Sigmoid { k: 1.0 },
            ))
        };
        let net = Mlp::new(vec![mk(4, 3), mk(3, 4), mk(4, 3)], vec![0.0; 4], 0.0);
        let t = Topology::of(&net);
        assert_eq!(t.depth(), 3);
        let diagram = t.ascii_diagram();
        assert!(diagram.contains("4-3-4"));
    }
}
