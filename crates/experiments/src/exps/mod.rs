//! One module per experiment family; each public function regenerates one
//! table or figure of the paper.

pub mod ablation;
pub mod structural;
pub mod sweeps;
pub mod telemetry;
pub mod tuning;
