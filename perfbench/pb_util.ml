(* Clock, sample vectors, process figures, set-up timing, operation
   counts and the result line shared by every workload. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9

(* Growable int vector: latencies (ns) and span fields. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
end

(* Latencies (ns) [lo, hi) of a vector, in milliseconds. *)
let ms_slice ?(lo = 0) ?hi v =
  let hi = Option.value hi ~default:(Ivec.length v) in
  Array.init (hi - lo) (fun i -> float_of_int (Ivec.get v (lo + i)) *. 1e-6)

(* Peak resident set ("VmHWM") of a process, in MB, from its status
   file.  [pid = None] is this process. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let kb = ref None in
  (try
     while Option.is_none !kb do
       let line = input_line ic in
       if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
       then
         Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
           (fun v -> kb := Some v)
     done
   with End_of_file -> ());
  close_in ic;
  match !kb with
  | Some v -> float_of_int v /. 1024.
  | None -> failwith ("no VmHWM in " ^ path)

(* CPU seconds (user + system) of this process, and of its reaped
   children. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU time the hypervisor gave to other guests while this machine's
   CPUs wanted to run: the "steal" column of /proc/stat, in ticks of
   1/100 s summed over the CPUs (0 where the file is unreadable). *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          int_of_string (List.nth fields 7)
      | _ -> 0)
  | None -> 0
  | exception Sys_error _ -> 0

(* The part of an interval of [wall] seconds that the host did not steal,
   given the steal ticks it saw.  On a shared VM steal comes in episodes
   that took up to a fifth of both CPUs for a whole run.  It falls almost
   all on the busy CPU, since an idle one asks for no time: with a round
   of ingest at ~70 ms, each tick of steal cost it ~10 ms.  Over four
   runs of ingest, two of them with steal in almost every round, the
   lower quartile of the round rates read 108-142k requests/s, and
   133-141k with the stolen time taken off.  Ticks are coarse against a
   short interval, so at most half of the interval is taken off. *)
let unstolen ~wall ~steal = Float.max (wall /. 2.) (wall -. (float_of_int steal /. 100.))

(* A quantile on the worse side of a run's per-round figures: the [share]
   quantile of a rate, the [1 - share] quantile of a time.  The 2-core
   x86-64 VM this was tuned on runs in speed phases, seconds to tens of
   seconds long and up to 1.5x apart, with no steal to show for them.  The
   slower phase turned up in every 30 s run and the faster one in some, so
   a run's median moved with the mix, and a quantile inside the slower
   phase much less: between runs of ingest 8-13% for the median against
   5-6% for the worse quartile; over six runs of trials, whose rounds are
   fewer and longer, 29% for the median, 20% for the worse quartile and
   8% for the worse decile. *)
let worse ~share ~higher_is_better v =
  Numkit.Summary.quantile v (if higher_is_better then share else 1. -. share)

let worse_quartile = worse ~share:0.25

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What a workload hands back: end-to-end metrics from an untraced run;
   per-layer metrics, each traced layer's self time, the traced total
   those layers split, and the tracing overhead from a traced run. *)
type outcome = {
  attempted : int;
  e2e : metric list;
  layers : (string * float) list;
  traced_total : float;
  overhead : float;
  per_layer : metric list;
}

let untraced attempted e2e =
  { attempted; e2e; layers = []; traced_total = 0.; overhead = 0.; per_layer = [] }

(* The result: the last line of stdout, one JSON object. *)
let print_result ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {|}
    correct attempted failed;
  List.iteri
    (fun i { name; value; unit_ } ->
      if not (Float.is_finite value) then
        failwith (Printf.sprintf "metric %s is not finite" name);
      Printf.bprintf buf {|%s"%s": {"value": %.17g, "unit": "%s"}|}
        (if i = 0 then "" else ", ")
        name value unit_)
    metrics;
  Buffer.add_string buf "}}";
  print_string (Buffer.contents buf);
  print_newline ()

(* Failed output checks are counted, the first few reported on stderr,
   and any failure turns the result's [correct] to false. *)
let failures = ref [] and failed_checks = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failed_checks;
        if !failed_checks <= 20 then failures := msg :: !failures
      end)
    fmt

let all_correct () =
  List.iter (fun msg -> prerr_endline ("perfbench: CHECK FAILED: " ^ msg))
    (List.rev !failures);
  if !failed_checks > 20 then
    prerr_endline
      (Printf.sprintf "perfbench: ... %d failed checks in all" !failed_checks);
  !failed_checks = 0

(* Operations the program answered with an error: counted against
   [attempted], apart from the output checks. *)
let failed_ops = ref 0

let info fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Scratch files (replay corpora, span dumps) live under the build
   directory of the checkout the benchmark runs in. *)
let tmp_dir () =
  let d = ".bench_build/perfbench" in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p d;
  d

(* Set-up times, each with the host steal (in ticks) it saw. *)
type setup_log = { mutable times : (float * int) list }

let setup_log () = { times = [] }

let timed_setup acc make =
  let t0 = now_ns () and st0 = steal_ticks () in
  let x = make () in
  acc.times <- (secs_of_ns (now_ns () - t0), steal_ticks () - st0) :: acc.times;
  x

(* Set-up, repeated: [make ()] runs at least [count] times and until
   [seconds] of set-up have passed; every instance but the last goes to
   [discard].  Returns the last instance. *)
let repeated_setup acc ~count ~seconds make discard =
  let rec go i =
    let x = timed_setup acc make in
    let spent = List.fold_left (fun a (t, _) -> a +. t) 0. acc.times in
    if i < count || spent < seconds then begin
      discard x;
      go (i + 1)
    end
    else x
  in
  go 1

(* The set-up figure of a run: the worse quartile of its unstolen set-up
   times. *)
let setup_figure acc =
  let times = Array.of_list acc.times in
  let setup_s =
    worse_quartile ~higher_is_better:false
      (Array.map (fun (wall, steal) -> unstolen ~wall ~steal) times)
  in
  info "set-up: %d times in %.3f s, upper quartile %.4f s" (Array.length times)
    (Array.fold_left (fun a (t, _) -> a +. t) 0. times)
    setup_s;
  setup_s
