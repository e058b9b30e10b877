(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe                     # every table and figure, small scale
     dune exec bench/main.exe -- fig5a            # one experiment
     dune exec bench/main.exe -- all --paper      # full 1000-peer paper scale
     dune exec bench/main.exe -- fig4 --metrics-dir out/   # dump registries as JSON

   Experiments: fig3a fig3b fig3-sim fig4 fig5a fig5b durability fig6a fig6b
                table2 ablate-delta ablate-fingers ablate-bypass ablate-bt
                ablate-cache stress churn-live lookup-perf scale

   An unknown option, a flag without its value, a malformed --slo spec or
   a second command prints the usage and exits 2 before anything runs.
   With --slo, a command that checked no spec exits 1. *)

open Experiments

let usage oc =
  output_string oc
    "usage: main.exe [all|fig3a|fig3b|fig3-sim|fig4|fig5a|fig5b|durability|fig6a|\n\
    \                 fig6b|table2|ablate-delta|ablate-fingers|ablate-bypass|\n\
    \                 ablate-bt|ablate-cache|stress|churn-live|lookup-perf|scale]\n\
    \                [--paper] [--metrics-dir DIR] [--audit] [--smoke]\n\
    \                [--slo 'lookup:p99<=40']...\n"

let bad_usage fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n" msg;
      usage stderr;
      exit 2)
    fmt

(* The commands by name.  [all] runs the experiments in list order;
   [scale] and the [lookup_perf] spelling run only when named.  Those that
   dump, audit or check --slo specs take the run context [ctx]. *)
let commands ctx ~scale ~smoke =
  let experiments =
    [
      ("fig3a", fun () -> Fig3.fig3a ());
      ("fig3b", fun () -> Fig3.fig3b ());
      ("fig3-sim", fun () -> Fig3.fig3_sim ~scale ());
      ("fig4", fun () -> Fig4.run ~scale ());
      ("fig5a", fun () -> Fig5.fig5a ctx ~scale ());
      ("fig5b", fun () -> Fig5.fig5b ctx ~scale ());
      ("durability", fun () -> Fig5.durability ctx ~scale ());
      ("fig6a", fun () -> Fig6.fig6a ctx ~scale ());
      ("fig6b", fun () -> Fig6.fig6b ctx ~scale ());
      ("table2", fun () -> Table2.run ctx ~scale ());
      ("ablate-delta", fun () -> Ablations.ablate_delta ctx ~scale ());
      ("ablate-fingers", fun () -> Ablations.ablate_fingers ctx ~scale ());
      ("ablate-bypass", fun () -> Ablations.ablate_bypass ~scale ());
      ("ablate-bt", fun () -> Ablations.ablate_bittorrent ctx ~scale ());
      ("ablate-cache", fun () -> Ablations.ablate_cache ~scale ());
      ("stress", fun () -> Ablations.link_stress ~scale ());
      ("churn-live", fun () -> Ablations.churn_live ());
      ("lookup-perf", fun () -> Lookup_perf.run ctx ~smoke ~scale ());
    ]
  in
  (("all", fun () -> List.iter (fun (_, run) -> run ()) experiments) :: experiments)
  @ [
      ("lookup_perf", fun () -> Lookup_perf.run ctx ~smoke ~scale ());
      ("scale", fun () -> Scale.run ctx ~smoke ());
    ]

let () =
  let paper = ref false and smoke = ref false and command = ref None in
  let metrics_dir = ref None and slo_specs = ref [] and audit_enabled = ref false in
  let rec parse = function
    | [] -> ()
    | "--paper" :: rest ->
      paper := true;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--audit" :: rest ->
      audit_enabled := true;
      parse rest
    | ("--metrics-dir" | "--slo") :: value :: _ when String.starts_with ~prefix:"-" value ->
      bad_usage "%S is not a value" value
    | "--metrics-dir" :: dir :: rest ->
      metrics_dir := Some dir;
      parse rest
    | "--slo" :: spec :: rest ->
      (match P2p_obs.Slo.parse spec with
       | Ok _ -> slo_specs := !slo_specs @ [ spec ]
       | Error msg -> bad_usage "--slo: %s" msg);
      parse rest
    | [ ("--metrics-dir" | "--slo") as flag ] -> bad_usage "%s needs a value" flag
    | ("help" | "--help" | "-h") :: _ ->
      usage stdout;
      exit 0
    | arg :: _ when String.starts_with ~prefix:"-" arg -> bad_usage "unknown option %S" arg
    | c :: rest ->
      (match !command with
       | Some first -> bad_usage "one command at a time, got %S and %S" first c
       | None -> command := Some c);
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale = if !paper then paper_scale else small_scale in
  let command = Option.value !command ~default:"all" in
  let ctx =
    context ~metrics_dir:!metrics_dir ~slo_specs:!slo_specs ~audit_enabled:!audit_enabled
  in
  let run =
    match List.assoc_opt command (commands ctx ~scale ~smoke:!smoke) with
    | Some run -> run
    | None -> bad_usage "unknown command %S" command
  in
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) !metrics_dir;
  Printf.printf "scale: %s\n%!" scale.label;
  run ();
  slo_verdict ctx ~command
