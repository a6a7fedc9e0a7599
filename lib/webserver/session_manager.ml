module Endpoint = Jhdl_netproto.Endpoint
module Metrics = Jhdl_metrics.Metrics

let log_src =
  Logs.Src.create "jhdl.sessions" ~doc:"supervised co-simulation sessions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  heartbeat_timeout_s : float;
  idle_timeout_s : float;
  max_sessions_per_user : int;
}

let default_config =
  { heartbeat_timeout_s = 30.0;
    idle_timeout_s = 300.0;
    max_sessions_per_user = 4 }

type session = {
  key : string;
  user : string;
  endpoint : Endpoint.t;
  opened_at : float;
  mutable last_heartbeat : float;
  mutable last_activity : float;
}

type reap_reason =
  | Heartbeat_lost
  | Idle

let reap_reason_name = function
  | Heartbeat_lost -> "heartbeat lost"
  | Idle -> "idle"

type reaped = {
  reaped_key : string;
  reason : reap_reason;
  checkpoint : (string, string) result;
}

type shutdown_report = {
  preserved : (string * string) list;
  lost : (string * string) list;
}

type stats = {
  live : int;
  opened : int;
  quota_rejections : int;
  reaped_heartbeat : int;
  reaped_idle : int;
}

type rejection = {
  rej_reason : string;
  rej_retry_after_s : float option;
}

type t = {
  config : config;
  mutable sessions : session list; (* open order *)
  mutable next_id : int;
  mutable opened_count : int;
  mutable quota_count : int;
  mutable heartbeat_reaps : int;
  mutable idle_reaps : int;
  mutable reap_log : reaped list; (* newest first *)
}

let create ?(config = default_config) ?(metrics = Metrics.nil) () =
  if config.max_sessions_per_user < 1 then
    invalid_arg "Session_manager.create: max_sessions_per_user must be positive";
  let t =
    { config;
      sessions = [];
      next_id = 1;
      opened_count = 0;
      quota_count = 0;
      heartbeat_reaps = 0;
      idle_reaps = 0;
      reap_log = [] }
  in
  (* the supervisor already tracks everything worth exporting in its own
     mutable fields; sample them as probes *)
  Metrics.probe metrics "sessions_live" (fun () -> List.length t.sessions);
  Metrics.probe metrics "sessions_opened_total" (fun () -> t.opened_count);
  Metrics.probe metrics "quota_rejections_total" (fun () -> t.quota_count);
  Metrics.probe metrics "reaped_heartbeat_total" (fun () -> t.heartbeat_reaps);
  Metrics.probe metrics "reaped_idle_total" (fun () -> t.idle_reaps);
  t

let user_load t user =
  List.length (List.filter (fun s -> String.equal s.user user) t.sessions)

let find t key =
  List.find_opt (fun s -> String.equal s.key key) t.sessions

let heartbeat t ~now key =
  match find t key with
  | None -> Error (Printf.sprintf "no session %s" key)
  | Some s ->
    s.last_heartbeat <- now;
    s.last_activity <- now;
    Ok ()

let activity t ~now key =
  match find t key with
  | None -> Error (Printf.sprintf "no session %s" key)
  | Some s ->
    s.last_activity <- now;
    Ok ()

let live_sessions t = List.map (fun s -> s.key) t.sessions
let endpoint t key = Option.map (fun s -> s.endpoint) (find t key)

(* Checkpoint a session on its way out. A crashed endpoint has no live
   simulator to snapshot; its durable journal may still allow a restart
   later, but the supervisor can preserve nothing here. *)
let final_checkpoint s =
  if Endpoint.is_alive s.endpoint then Endpoint.snapshot s.endpoint
  else Error "endpoint crashed; nothing live to checkpoint"

let expiry t ~now s =
  if
    t.config.heartbeat_timeout_s > 0.0
    && now -. s.last_heartbeat > t.config.heartbeat_timeout_s
  then Some Heartbeat_lost
  else if
    t.config.idle_timeout_s > 0.0
    && now -. s.last_activity > t.config.idle_timeout_s
  then Some Idle
  else None

(* one supervision pass: reap everything expired, checkpointing each on
   the way out and appending to the durable reap log (the chaos
   invariants audit it — a session may never vanish unreported) *)
let reap_expired t ~now =
  let expired, live =
    List.partition (fun s -> expiry t ~now s <> None) t.sessions
  in
  t.sessions <- live;
  let reaped =
    List.map
      (fun s ->
         let reason =
           match expiry t ~now s with Some r -> r | None -> assert false
         in
         (match reason with
          | Heartbeat_lost -> t.heartbeat_reaps <- t.heartbeat_reaps + 1
          | Idle -> t.idle_reaps <- t.idle_reaps + 1);
         Log.info (fun m -> m "reaped %s (%s)" s.key (reap_reason_name reason));
         { reaped_key = s.key; reason; checkpoint = final_checkpoint s })
      expired
  in
  t.reap_log <- List.rev_append reaped t.reap_log;
  reaped

let tick t ~now = reap_expired t ~now

let reap_report t = List.rev t.reap_log

let open_session t ~user ~now endpoint =
  (* reap first: a dead session must never hold a live user's quota
     slot — expired peers free their slots before the check *)
  let _ = reap_expired t ~now in
  if user_load t user >= t.config.max_sessions_per_user then begin
    t.quota_count <- t.quota_count + 1;
    Log.warn (fun m ->
      m "refused session for %s: quota of %d reached" user
        t.config.max_sessions_per_user);
    (* the soonest this user's slot can free up without traffic: the
       earliest heartbeat or idle expiry among their live sessions *)
    let expiry_at s =
      let hb =
        if t.config.heartbeat_timeout_s > 0.0 then
          Some (s.last_heartbeat +. t.config.heartbeat_timeout_s)
        else None
      in
      let idle =
        if t.config.idle_timeout_s > 0.0 then
          Some (s.last_activity +. t.config.idle_timeout_s)
        else None
      in
      match (hb, idle) with
      | Some a, Some b -> Some (Float.min a b)
      | (Some _ as x), None | None, (Some _ as x) -> x
      | None, None -> None
    in
    let retry_after =
      List.fold_left
        (fun acc s ->
           if not (String.equal s.user user) then acc
           else
             match (expiry_at s, acc) with
             | Some e, Some best -> Some (Float.min e best)
             | (Some _ as x), None -> x
             | None, acc -> acc)
        None t.sessions
      |> Option.map (fun e -> Float.max 0.0 (e -. now))
    in
    Error
      { rej_reason =
          Printf.sprintf "quota: %s already has %d live session(s)" user
            t.config.max_sessions_per_user;
        rej_retry_after_s = retry_after }
  end
  else begin
    let key =
      Printf.sprintf "%s/%s#%d" user (Endpoint.name endpoint) t.next_id
    in
    t.next_id <- t.next_id + 1;
    t.opened_count <- t.opened_count + 1;
    t.sessions <-
      t.sessions
      @ [ { key; user; endpoint; opened_at = now; last_heartbeat = now;
            last_activity = now } ];
    Log.info (fun m -> m "opened %s" key);
    Ok key
  end

let shutdown t =
  let preserved, lost =
    List.fold_left
      (fun (preserved, lost) s ->
         match final_checkpoint s with
         | Ok blob -> ((s.key, blob) :: preserved, lost)
         | Error reason -> (preserved, (s.key, reason) :: lost))
      ([], []) t.sessions
  in
  t.sessions <- [];
  let report = { preserved = List.rev preserved; lost = List.rev lost } in
  Log.info (fun m ->
    m "shutdown: %d session(s) preserved, %d lost"
      (List.length report.preserved) (List.length report.lost));
  report

let stats t =
  { live = List.length t.sessions;
    opened = t.opened_count;
    quota_rejections = t.quota_count;
    reaped_heartbeat = t.heartbeat_reaps;
    reaped_idle = t.idle_reaps }
