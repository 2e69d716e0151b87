//! Table 1: the fill-job category table (size class, model, parameter
//! count, job type).

use pipefill_model_zoo::ModelId;

use crate::experiments::{row, Experiment, Grid, Scale, Table};

/// The paper's reported counts, in table order.
const PAPER_PARAMS_M: [f64; 5] = [117.0, 109.0, 334.0, 779.0, 2800.0];

/// Table 1, built from the model zoo next to the paper's counts.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn description(&self) -> &'static str {
        "Table 1: fill-job categories vs the paper's parameter counts"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "size_class",
            "model",
            "params_millions",
            "paper_params_millions",
            "domain",
        ]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        Table::with_rows(
            self.columns(),
            ModelId::FILL_JOBS
                .iter()
                .zip(PAPER_PARAMS_M)
                .map(|(&model, paper)| {
                    row![
                        model.size_class().to_string(),
                        model.name(),
                        model.build().total_params() as f64 / 1e6,
                        paper,
                        model.domain().to_string(),
                    ]
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_models_match_paper_counts() {
        let t = Table1.run(&Grid::default());
        for (built, paper) in t
            .f64_column("params_millions")
            .into_iter()
            .zip(t.f64_column("paper_params_millions"))
        {
            let err = (built - paper).abs() / paper;
            assert!(err < 0.08, "built {built}M vs paper {paper}M");
        }
    }

    #[test]
    fn table_has_all_five_fill_jobs() {
        assert_eq!(Table1.run(&Grid::default()).len(), 5);
    }
}
