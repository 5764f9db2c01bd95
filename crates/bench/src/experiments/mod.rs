//! One module per paper artifact — each exposes `run(Scale) -> Vec<Table>`
//! so the `all` runner and the integration tests share the exact same
//! code paths.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig9;
pub mod tables;

use ta_core::{GemmReport, GemmRequest, GemmShape, PatternSource, Session, TransArrayConfig};

/// Opens a session on a figure's (valid by construction) design point.
fn session(cfg: TransArrayConfig) -> Session {
    Session::new(cfg).expect("figure design points are valid")
}

/// Simulates one layer of a figure on `session`.
fn simulate_layer_on(
    session: &Session,
    shape: GemmShape,
    source: impl PatternSource + Send + 'static,
) -> GemmReport {
    session.run(GemmRequest::simulate(shape, source)).expect("figure layers are valid").report
}
