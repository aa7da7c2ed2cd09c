(* [Hunt.hunt] in random mode over a bare protocol module, for the
   suites that hunt protocols outside the registry; the violation
   report is the certificate's message. *)
let run ?max_failures ?max_runs ?jobs ~property ~rule ~n ~seed protocol =
  let (module P : Patterns_sim.Protocol.S) = protocol in
  let entry =
    {
      Patterns_protocols.Registry.name = P.name;
      describe = P.describe;
      default_n = n;
      fixed_n = false;
      protocol;
    }
  in
  Patterns_adversary.Hunt.hunt ?max_failures ?max_runs ?jobs ~mode:Patterns_adversary.Hunt.Random
    ~property ~rule ~n ~seed entry
  |> Result.map (fun c -> c.Patterns_adversary.Cert.message)
