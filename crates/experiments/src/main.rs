//! CLI entry point: `experiments <id> [--full] [--out DIR]`.

use experiments::exps;
use experiments::harness::Options;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut command: Option<String> = None;
    let mut opts = Options::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.full = true,
            "--out" => {
                opts.out_dir = args.next().expect("--out needs a directory").into();
            }
            c if command.is_none() => command = Some(c.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(command) = command else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    run(&command, &opts);
}

const USAGE: &str = "usage: experiments <id> [--full] [--out DIR]

ids: table1 table2 table3 table4 table5
     fig6 fig7 fig8 fig9 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19
     ablations | ablation-selective | ablation-spin | ablation-grouping
     telemetry  (per-stage wall-time breakdown of a VQE iteration; needs --features telemetry)
     all  (everything, in order)";

fn run(command: &str, opts: &Options) {
    match command {
        "fig6" => exps::structural::fig6(opts),
        "fig7" => exps::structural::fig7(opts),
        "fig8" => exps::structural::fig8(opts),
        "table2" => exps::structural::table2_exp(opts),
        "fig12" => exps::structural::fig12(opts),
        "table1" => exps::tuning::table1(opts),
        "fig9" => exps::tuning::fig9(opts),
        "fig13" => exps::tuning::fig13(opts),
        "fig14" => exps::tuning::fig14(opts),
        "fig15" => exps::tuning::fig15(opts),
        "fig16" => exps::sweeps::fig16(opts),
        "fig17" => exps::sweeps::fig17(opts),
        "fig18" => exps::sweeps::fig18(opts),
        "fig19" => exps::sweeps::fig19(opts),
        "table3" => exps::sweeps::table3(opts),
        "table4" => exps::sweeps::table4(opts),
        "table5" => exps::sweeps::table5(opts),
        "ablation-selective" => exps::ablation::selective_mitigation(opts),
        "ablation-spin" => exps::ablation::spin_chains(opts),
        "ablation-grouping" => exps::ablation::grouping(opts),
        "telemetry" => exps::telemetry::telemetry_exp(opts),
        "ablations" => {
            exps::ablation::selective_mitigation(opts);
            exps::ablation::spin_chains(opts);
            exps::ablation::grouping(opts);
        }
        "all" => {
            for id in [
                "fig6",
                "fig7",
                "fig8",
                "table2",
                "fig12",
                "table1",
                "fig9",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "fig19",
                "table3",
                "table4",
                "table5",
                "ablations",
                "telemetry",
            ] {
                println!("\n=== {id} ===");
                run(id, opts);
            }
        }
        other => {
            eprintln!("unknown experiment id: {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
